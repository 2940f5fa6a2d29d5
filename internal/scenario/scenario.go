// Package scenario defines the repository's single declarative run
// specification. A Scenario is a pure-JSON description of one simulated
// run — an IChannels covert-channel transmission, one of the four
// baseline channels, the instruction-class-inference side channel, a
// mitigation evaluation, or a registered paper experiment — and
// Run/Runner.RunCell is the single entry point that executes any of them.
//
// Every run path that used to need its own Go call sequence
// (core.New+Calibrate+Transmit, baselines.New*, core.NewSpy,
// mitigate.Evaluate, exp.Run) is reachable through a Scenario, so the
// CLI, the Go facade, and the HTTP v1 API all speak the same language
// and their results land in the same normalized Result envelope,
// directly comparable across channel kinds, processors, baselines and
// mitigations.
//
// Determinism: for a fixed spec and seed, Run produces a Result whose
// JSON encoding is byte-identical across processes, batch parallelism,
// and transports (direct Go call vs HTTP). Scenario.Hash() is a stable
// content hash of the normalized spec (excluding Name and Seed), used
// as the cache / single-flight key by internal/serve.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"ichannels/internal/core"
	"ichannels/internal/exp"
	"ichannels/internal/mitigate"
	"ichannels/internal/model"
)

// Roles select which run path a Scenario describes.
const (
	// RoleChannel transmits over one of the three IChannels variants.
	RoleChannel = "channel"
	// RoleBaseline transmits over one of the four comparison channels.
	RoleBaseline = "baseline"
	// RoleSpy runs the §6.5 instruction-class-inference side channel.
	RoleSpy = "spy"
	// RoleMitigation grades a channel kind under one of the §7 defenses.
	RoleMitigation = "mitigation-eval"
	// RoleExperiment regenerates a registered paper figure/table by ID.
	RoleExperiment = "experiment"
)

// Channel/spy kind names for the paper's three variants (the adopted
// families' names live next to their registry entries in registry.go,
// which is the authoritative list of every kind).
const (
	KindThread = "thread"
	KindSMT    = "smt"
	KindCores  = "cores"
)

// Baseline names.
const (
	BaselineNetSpectre = "netspectre"
	BaselineTurboCC    = "turbocc"
	BaselineDFScovert  = "dfscovert"
	BaselinePowerT     = "powert"
)

// Mitigation names (canonical spellings; Normalized folds aliases).
const (
	MitigationNone               = "none"
	MitigationPerCoreVR          = "percore-vr"
	MitigationImprovedThrottling = "improved-throttling"
	MitigationSecureMode         = "secure-mode"
)

// DefaultSeed is the seed a Scenario runs with when Seed is zero and no
// batch base seed derives one.
const DefaultSeed = 1

// ResolveSeed is the seed rule every surface shares, for a spec's seed
// field, the CLI's -seed flags and the HTTP ?seed= query: zero means
// DefaultSeed and a negative seed is an error.
func ResolveSeed(seed int64) (int64, error) {
	switch {
	case seed < 0:
		return 0, fmt.Errorf("seed must be non-negative, got %d", seed)
	case seed == 0:
		return DefaultSeed, nil
	}
	return seed, nil
}

// MaxBits bounds the payload of one scenario so a single HTTP request
// cannot ask for an unbounded amount of simulated time.
const MaxBits = 8192

// DefaultProcessor is the part a spec gets when it names none — the
// paper's primary characterization target.
const DefaultProcessor = "Cannon Lake"

// Noise configures OS noise injection and measurement jitter for the
// scenario's machine (absent = an ideal quiet machine).
type Noise struct {
	// InterruptsPerSec is the machine-wide interrupt arrival rate.
	InterruptsPerSec float64 `json:"interrupts_per_sec,omitempty"`
	// CtxSwitchesPerSec is the context-switch arrival rate.
	CtxSwitchesPerSec float64 `json:"ctx_switches_per_sec,omitempty"`
	// TSCJitterCycles adds uniform [0,n) cycles of rdtsc noise.
	TSCJitterCycles int64 `json:"tsc_jitter_cycles,omitempty"`
}

// Coding enables Hamming(7,4)+interleave+CRC framing of the payload
// (§6.3). Valid for role "channel" with a Payload.
type Coding struct {
	// InterleaveDepth is the bit interleaver depth (default 7).
	InterleaveDepth int `json:"interleave_depth,omitempty"`
}

// Params overrides tuning knobs whose defaults otherwise come from the
// processor profile and role (see DefaultParams / the schema endpoint).
// Zero values mean "keep the default".
type Params struct {
	// SlotPeriodUS overrides the covert transaction cycle (channel role).
	SlotPeriodUS float64 `json:"slot_period_us,omitempty"`
	// SenderIters overrides the sender PHI-loop length (channel role).
	SenderIters int64 `json:"sender_iters,omitempty"`
	// ReceiverIters overrides the receiver measurement loop (channel role).
	ReceiverIters int64 `json:"receiver_iters,omitempty"`
	// ReceiverOffsetUS overrides the receiver's slot offset (channel role).
	ReceiverOffsetUS float64 `json:"receiver_offset_us,omitempty"`
	// FreqGHz overrides the requested operating point (default: the
	// profile's base frequency; TurboCC defaults to max Turbo).
	FreqGHz float64 `json:"freq_ghz,omitempty"`
	// Cores overrides the number of instantiated cores (default 2).
	Cores int `json:"cores,omitempty"`
	// CalibReps overrides the calibration repetitions per symbol/width/
	// pair (defaults are per-role; see the schema endpoint).
	CalibReps int `json:"calib_reps,omitempty"`
}

// Scenario is the declarative, JSON-serializable description of one run.
// The zero value is invalid; Role is required and the remaining fields
// depend on it (Validate spells out the rules, and GET
// /v1/scenarios/schema serves a machine-readable description).
type Scenario struct {
	// Name is an optional human label echoed into batch outcomes and
	// serving envelopes (not into the shared Result, and not into Hash:
	// two specs differing only by Name are the same run).
	Name string `json:"name,omitempty"`
	// Role selects the run path: channel, baseline, spy,
	// mitigation-eval, or experiment.
	Role string `json:"role"`
	// Processor names the simulated part (marketing or code name;
	// default "Cannon Lake"). Unused for role "experiment".
	Processor string `json:"processor,omitempty"`
	// Kind is the channel variant (see registry.go for the full list:
	// thread/smt/cores plus the adopted retire and clockmod families).
	// Any registered kind is valid for channel and mitigation-eval
	// (default cores); the spy role takes smt/cores (default smt).
	Kind string `json:"kind,omitempty"`
	// Baseline names the comparison channel for role "baseline":
	// netspectre, turbocc, dfscovert, or powert.
	Baseline string `json:"baseline,omitempty"`
	// Mitigation names the defense for role "mitigation-eval": none,
	// percore-vr, improved-throttling, or secure-mode (default none).
	Mitigation string `json:"mitigation,omitempty"`
	// Experiment is the registered experiment ID for role "experiment".
	Experiment string `json:"experiment,omitempty"`
	// Noise configures OS noise injection (absent = quiet machine).
	// Role mitigation-eval defines its own noise environment and
	// rejects this field.
	Noise *Noise `json:"noise,omitempty"`
	// Coding frames the Payload with ECC before transmission
	// (role channel only).
	Coding *Coding `json:"coding,omitempty"`
	// Bits is the number of pseudo-random payload bits to transmit
	// (even, ≤ MaxBits). Mutually exclusive with Payload; zero picks a
	// per-role default.
	Bits int `json:"bits,omitempty"`
	// Payload is a literal byte payload to transmit instead of random
	// bits (roles channel and baseline; ≤ 255 bytes).
	Payload string `json:"payload,omitempty"`
	// Seed drives all simulation randomness. Zero means "default": a
	// single run uses DefaultSeed, a batch derives a per-scenario seed
	// from the batch base seed and Hash().
	Seed int64 `json:"seed,omitempty"`
	// Params overrides tuning defaults.
	Params *Params `json:"params,omitempty"`
}

// defaultBits returns the per-role payload size used when the spec gives
// neither Bits nor Payload, read from the kind/baseline registries (slow
// carriers default smaller so one scenario stays within a few simulated
// seconds). Unknown kind/baseline names keep the historical fallback so
// normalization stays total; validate rejects them before anything runs.
func defaultBits(role, kind, baseline string) int {
	switch role {
	case RoleChannel, RoleMitigation:
		if ks, ok := kindByName[kind]; ok {
			return ks.defaultBits
		}
	case RoleBaseline:
		if bs, ok := baselineByName[baseline]; ok {
			return bs.defaultBits
		}
	case RoleSpy:
		return 32 // 16 observation windows × 2 bits per width class
	case RoleExperiment:
		return 0
	}
	return 64
}

// defaultCalibReps returns the per-role calibration repetitions, read
// from the kind/baseline registries (same unknown-name fallback rule as
// defaultBits).
func defaultCalibReps(role, kind, baseline string) int {
	switch role {
	case RoleChannel, RoleMitigation:
		if ks, ok := kindByName[kind]; ok {
			return ks.defaultCalibReps
		}
	case RoleBaseline:
		if bs, ok := baselineByName[baseline]; ok {
			return bs.defaultCalibReps
		}
	}
	return 6
}

// Normalized returns the spec with defaults folded in and names
// canonicalized (processor → code name, mitigation aliases, lower-cased
// enums). Hash and Run operate on the normalized form, so a spec and
// its normalization are the same scenario.
func (s Scenario) Normalized() Scenario {
	n := s
	n.Role = strings.ToLower(strings.TrimSpace(n.Role))
	n.Kind = strings.ToLower(strings.TrimSpace(n.Kind))
	n.Baseline = strings.ToLower(strings.TrimSpace(n.Baseline))
	n.Mitigation = strings.ToLower(strings.TrimSpace(n.Mitigation))
	if canon, ok := mitigationAliases[n.Mitigation]; ok {
		n.Mitigation = canon
	}
	if n.Role != RoleExperiment {
		if n.Processor == "" {
			n.Processor = DefaultProcessor
		}
		if p, err := model.SharedByName(n.Processor); err == nil {
			n.Processor = p.CodeName
		}
	}
	switch n.Role {
	case RoleChannel, RoleMitigation:
		if n.Kind == "" {
			n.Kind = KindCores
		}
	case RoleSpy:
		if n.Kind == "" {
			n.Kind = KindSMT
		}
	}
	if n.Role == RoleMitigation && n.Mitigation == "" {
		n.Mitigation = MitigationNone
	}
	if n.Coding != nil {
		c := *n.Coding
		if c.InterleaveDepth == 0 {
			c.InterleaveDepth = 7
		}
		n.Coding = &c
	}
	// Collapse empty sub-objects so {"noise":{}} hashes like no noise.
	if n.Noise != nil && *n.Noise == (Noise{}) {
		n.Noise = nil
	}
	if n.Params != nil && *n.Params == (Params{}) {
		n.Params = nil
	}
	if n.Bits == 0 && n.Payload == "" {
		n.Bits = defaultBits(n.Role, n.Kind, n.Baseline)
	}
	return n
}

// Hash returns a stable 16-hex-character content hash of the normalized
// spec, excluding Name (a display label) and Seed. Together with the
// effective seed it identifies a run's result bytes, which is what the
// serve layer's single-flight cache keys on.
func (s Scenario) Hash() string {
	return s.Normalized().hash()
}

// hash is Hash on an already-normalized spec.
func (n Scenario) hash() string {
	n.Name = ""
	n.Seed = 0
	b, err := json.Marshal(n)
	if err != nil {
		// Scenario has no unmarshalable fields; keep the signature clean.
		panic("scenario: hash marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Describe returns a short human label for tables and timing output.
func (s Scenario) Describe() string {
	n := s.Normalized()
	if n.Name != "" {
		return n.Name
	}
	switch n.Role {
	case RoleChannel:
		return fmt.Sprintf("channel/%s @ %s", n.Kind, n.Processor)
	case RoleBaseline:
		return fmt.Sprintf("baseline/%s @ %s", n.Baseline, n.Processor)
	case RoleSpy:
		return fmt.Sprintf("spy/%s @ %s", n.Kind, n.Processor)
	case RoleMitigation:
		return fmt.Sprintf("%s × %s/%s @ %s", n.Mitigation, RoleChannel, n.Kind, n.Processor)
	case RoleExperiment:
		return "experiment/" + n.Experiment
	}
	return "scenario/" + n.Role
}

// channelKind maps a registered kind name to the paper-variant core enum
// (only the classic kinds have one; the spy path is the sole remaining
// caller that needs it directly).
func channelKind(kind string) (core.Kind, error) {
	if ks, ok := kindByName[kind]; ok && ks.hasCore {
		return ks.coreKind, nil
	}
	return 0, errUnknownKind(kind)
}

// errUnknownKind is the shared unknown-channel-kind error, listing the
// registry's vocabulary.
func errUnknownKind(kind string) error {
	return fmt.Errorf("scenario: unknown channel kind %q (%s)", kind, orList(ChannelKindNames()))
}

// mitigationKind maps a mitigation name to the mitigate enum via the
// registry.
func mitigationKind(name string) (mitigate.Kind, error) {
	if ms, ok := mitigationByName[name]; ok {
		return ms.kind, nil
	}
	return 0, fmt.Errorf("scenario: unknown mitigation %q (%s)", name, orList(MitigationNames()))
}

// Validate checks the spec for consistency. It normalizes first, so a
// raw user spec can be validated directly.
func (s Scenario) Validate() error {
	return s.Normalized().validate()
}

// Identify returns what Normalized, Hash and Validate return, from one
// normalization: a cell's identity, checked once at the trust boundary.
// Runner.RunCell, the engine's runners and the store trust the result.
func (s Scenario) Identify() (Scenario, string, error) {
	n := s.Normalized()
	if err := n.validate(); err != nil {
		return Scenario{}, "", err
	}
	return n, n.hash(), nil
}

// validate checks an already-normalized spec.
func (n Scenario) validate() error {
	switch n.Role {
	case RoleChannel, RoleBaseline, RoleSpy, RoleMitigation, RoleExperiment:
	case "":
		return fmt.Errorf("scenario: missing role (%s)", orList(roleNames()))
	default:
		return fmt.Errorf("scenario: unknown role %q (%s)", n.Role, orList(roleNames()))
	}

	if n.Role == RoleExperiment {
		if n.Experiment == "" {
			return fmt.Errorf("scenario: role experiment requires an experiment id (see /v1/experiments)")
		}
		if _, ok := exp.Lookup(n.Experiment); !ok {
			return fmt.Errorf("scenario: unknown experiment %q (use one of %v)", n.Experiment, exp.IDs())
		}
		for field, set := range map[string]bool{
			"processor": n.Processor != "", "kind": n.Kind != "",
			"baseline": n.Baseline != "", "mitigation": n.Mitigation != "",
			"noise": n.Noise != nil, "coding": n.Coding != nil,
			"bits": n.Bits != 0, "payload": n.Payload != "", "params": n.Params != nil,
		} {
			if set {
				return fmt.Errorf("scenario: role experiment takes only an experiment id and a seed; %s must be empty", field)
			}
		}
		return nil
	}
	if n.Experiment != "" {
		return fmt.Errorf("scenario: experiment is only valid with role experiment")
	}

	proc, err := model.SharedByName(n.Processor)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	cores := effectiveCores(n, proc.Cores)

	switch n.Role {
	case RoleChannel, RoleMitigation:
		ks, ok := kindByName[n.Kind]
		if !ok {
			return errUnknownKind(n.Kind)
		}
		if ks.requiresSMT && proc.SMTWays < 2 {
			return fmt.Errorf("scenario: kind %s requires an SMT processor; %s has none", ks.name, proc.CodeName)
		}
		if ks.minCores > 0 && cores < ks.minCores {
			return fmt.Errorf("scenario: kind %s requires at least %d cores (params.cores=%d)", ks.name, ks.minCores, cores)
		}
	case RoleSpy:
		ks, ok := kindByName[n.Kind]
		if !ok || !ks.spyRole {
			return fmt.Errorf("scenario: spy kind must be %s, got %q", orList(SpyKindNames()), n.Kind)
		}
		if ks.requiresSMT && proc.SMTWays < 2 {
			return fmt.Errorf("scenario: spy kind %s requires an SMT processor; %s has none", ks.name, proc.CodeName)
		}
		if ks.minCores > 0 && cores < ks.minCores {
			return fmt.Errorf("scenario: spy kind %s requires at least %d cores (params.cores=%d)", ks.name, ks.minCores, cores)
		}
	case RoleBaseline:
		if n.Baseline == "" {
			return fmt.Errorf("scenario: role baseline requires a baseline name (%s)", orList(BaselineNames()))
		}
		bs, ok := baselineByName[n.Baseline]
		if !ok {
			return fmt.Errorf("scenario: unknown baseline %q (%s)", n.Baseline, orList(BaselineNames()))
		}
		if bs.minCores > 0 && cores < bs.minCores {
			return fmt.Errorf("scenario: baseline %s requires at least %d cores (params.cores=%d)", bs.name, bs.minCores, cores)
		}
	}

	if n.Role != RoleChannel && n.Coding != nil {
		return fmt.Errorf("scenario: coding is only valid for role channel")
	}
	if n.Role != RoleChannel && n.Role != RoleBaseline && n.Payload != "" {
		return fmt.Errorf("scenario: payload is only valid for roles channel and baseline")
	}
	if n.Mitigation != "" {
		if _, err := mitigationKind(n.Mitigation); err != nil {
			return err
		}
		if n.Role != RoleMitigation {
			return fmt.Errorf("scenario: mitigation is only valid for role mitigation-eval")
		}
	}
	if n.Role == RoleMitigation && n.Noise != nil {
		return fmt.Errorf("scenario: mitigation-eval defines its own noise environment; drop the noise field")
	}
	if n.Baseline != "" && n.Role != RoleBaseline {
		return fmt.Errorf("scenario: baseline is only valid for role baseline")
	}
	if n.Role == RoleBaseline && n.Kind != "" {
		return fmt.Errorf("scenario: baselines have a fixed topology; kind must be empty")
	}

	if n.Payload != "" {
		if n.Bits != 0 {
			return fmt.Errorf("scenario: bits and payload are mutually exclusive")
		}
		if len(n.Payload) > 255 {
			return fmt.Errorf("scenario: payload %d bytes exceeds the 255-byte frame limit", len(n.Payload))
		}
	} else {
		if n.Bits <= 0 {
			return fmt.Errorf("scenario: bits must be positive, got %d", n.Bits)
		}
		if n.Bits%2 != 0 {
			return fmt.Errorf("scenario: bits must be even (2 bits per covert symbol), got %d", n.Bits)
		}
		if n.Bits > MaxBits {
			return fmt.Errorf("scenario: bits %d exceeds the per-scenario limit %d", n.Bits, MaxBits)
		}
		if n.Coding != nil {
			return fmt.Errorf("scenario: coding requires a payload (random bits are not framed)")
		}
	}

	if no := n.Noise; no != nil {
		if no.InterruptsPerSec < 0 || no.CtxSwitchesPerSec < 0 || no.TSCJitterCycles < 0 {
			return fmt.Errorf("scenario: noise rates and jitter must be non-negative")
		}
	}
	if c := n.Coding; c != nil && c.InterleaveDepth < 1 {
		return fmt.Errorf("scenario: interleave depth must be positive, got %d", c.InterleaveDepth)
	}
	if p := n.Params; p != nil {
		if p.SlotPeriodUS < 0 || p.SenderIters < 0 || p.ReceiverIters < 0 ||
			p.ReceiverOffsetUS < 0 || p.FreqGHz < 0 || p.Cores < 0 || p.CalibReps < 0 {
			return fmt.Errorf("scenario: params overrides must be non-negative")
		}
		if p.Cores > proc.Cores {
			return fmt.Errorf("scenario: params.cores=%d exceeds the %s profile's %d cores", p.Cores, proc.CodeName, proc.Cores)
		}
		// Reject overrides the role would silently ignore: an ignored
		// field still enters the content hash, so accepting it would
		// both mislead the user and fragment the result cache.
		if n.Role != RoleChannel &&
			(p.SlotPeriodUS != 0 || p.SenderIters != 0 || p.ReceiverIters != 0 || p.ReceiverOffsetUS != 0) {
			return fmt.Errorf("scenario: params slot_period_us/sender_iters/receiver_iters/receiver_offset_us are only valid for role channel")
		}
		if n.Role == RoleChannel && p.SenderIters != 0 {
			if ks, ok := kindByName[n.Kind]; ok && ks.noSenderIters {
				return fmt.Errorf("scenario: params sender_iters is not valid for kind %s (its sender has no tuning loop)", n.Kind)
			}
		}
		if n.Role == RoleMitigation && (p.FreqGHz != 0 || p.CalibReps != 0) {
			return fmt.Errorf("scenario: mitigation-eval fixes its own operating point and calibration; only params.cores may be overridden")
		}
	}
	if _, err := ResolveSeed(n.Seed); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// effectiveCores returns the core count the scenario's machine gets:
// the override, else min(2, the profile's cores) — two cores cover every
// topology the run paths need while keeping big parts (the 24-core Xeon)
// cheap.
func effectiveCores(n Scenario, profileCores int) int {
	if n.Params != nil && n.Params.Cores > 0 {
		return n.Params.Cores
	}
	return min(profileCores, 2)
}

// effectiveCalibReps returns the calibration repetition count.
func effectiveCalibReps(n Scenario) int {
	if n.Params != nil && n.Params.CalibReps > 0 {
		return n.Params.CalibReps
	}
	return defaultCalibReps(n.Role, n.Kind, n.Baseline)
}
