package scenario

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"

	"ichannels/internal/core"
	"ichannels/internal/ecc"
	"ichannels/internal/exp"
	"ichannels/internal/isa"
	"ichannels/internal/mitigate"
	"ichannels/internal/model"
	"ichannels/internal/soc"
	"ichannels/internal/stats"
	"ichannels/internal/units"
)

// Result is the normalized envelope every scenario run produces, so
// heterogeneous runs (channel vs baseline vs spy vs mitigation) are
// directly comparable. Its JSON encoding is deterministic for a fixed
// (spec, seed): wall-clock timing never enters this struct (the engine
// and serve layers carry it separately).
type Result struct {
	// Role/Processor/Kind/Baseline/Mitigation/Experiment echo the
	// normalized spec so a Result is self-describing. The spec's Name
	// label deliberately does NOT appear here: results are shared
	// between requests through the (hash, seed) cache, and the hash
	// excludes Name — the serving envelopes and batch outcomes carry
	// each requester's own label instead.
	Role       string `json:"role"`
	Processor  string `json:"processor,omitempty"`
	Kind       string `json:"kind,omitempty"`
	Baseline   string `json:"baseline,omitempty"`
	Mitigation string `json:"mitigation,omitempty"`
	Experiment string `json:"experiment,omitempty"`
	// Hash is the spec's content hash (cache identity).
	Hash string `json:"hash"`
	// Seed is the effective seed the run used.
	Seed int64 `json:"seed"`

	// Bits is the number of payload bits transmitted (0 for experiment
	// runs).
	Bits int `json:"bits,omitempty"`
	// SentBits/DecodedBits are the flattened bit streams. For the spy
	// role each observation window contributes its 2-bit width-class
	// index (actual vs inferred).
	SentBits    []int `json:"sent_bits,omitempty"`
	DecodedBits []int `json:"decoded_bits,omitempty"`
	// DecodedPayload is the reassembled payload when the spec sent one.
	DecodedPayload string `json:"decoded_payload,omitempty"`
	// ThroughputBPS is the raw channel throughput (bits per simulated
	// second); for mitigation-eval it is the effective goodput estimate.
	ThroughputBPS float64 `json:"throughput_bps,omitempty"`
	// BER is the bit error rate of the transmission.
	BER float64 `json:"ber"`
	// SymbolErrors counts wrongly decoded 2-bit symbols (channel role).
	SymbolErrors int `json:"symbol_errors,omitempty"`
	// ElapsedSimUS is the simulated (not wall-clock) transmission time.
	ElapsedSimUS float64 `json:"elapsed_sim_us,omitempty"`
	// Verdict grades a mitigation evaluation (unaffected/partial/
	// mitigated).
	Verdict string `json:"verdict,omitempty"`
	// Extra carries per-role scalar metrics (calibration gap, spy
	// accuracy, ECC corrections, ...). encoding/json emits map keys
	// sorted, keeping the envelope deterministic.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Notes records caveats (e.g. an unrecoverable ECC frame).
	Notes []string `json:"notes,omitempty"`
	// Report is the regenerated figure/table for role experiment.
	Report *exp.Report `json:"report,omitempty"`
}

// extra records a scalar metric, allocating the map on first use.
func (r *Result) extra(name string, v float64) {
	if r.Extra == nil {
		r.Extra = map[string]float64{}
	}
	r.Extra[name] = v
}

// note appends a commentary line.
func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Runner executes scenarios. The zero value runs everything with the
// real implementations; tests and the serve layer inject ExpRun to
// observe or fake experiment execution.
type Runner struct {
	// ExpRun overrides the experiment executor for role "experiment"
	// (nil means exp.Run).
	ExpRun func(id string, seed int64) (*exp.Report, error)
	// Machines, when set, recycles simulated machines across runs
	// instead of constructing one per scenario — the big wall-clock win
	// for grids of short cells. Reset machines replay byte-identically
	// to fresh ones (the soc pooling contract), so results do not depend
	// on whether a pool is set. Nil constructs per run.
	Machines *soc.Pool
}

// Run checks one scenario through Identify and executes it with the
// default Runner at its spec seed, else DefaultSeed. The context is
// checked between simulation phases (the discrete-event simulator
// itself is not interruptible mid-phase).
func Run(ctx context.Context, s Scenario) (*Result, error) {
	n, hash, err := s.Identify()
	if err != nil {
		return nil, err
	}
	return Runner{}.RunCell(ctx, n, hash, cmp.Or(n.Seed, DefaultSeed))
}

// RunCell executes one cell at an explicit seed. It trusts its inputs,
// a normalized, validated spec and its hash as Identify returns them,
// and files the result under that hash, the store's and the wire's key.
func (r Runner) RunCell(ctx context.Context, n Scenario, hash string, seed int64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{
		Role: n.Role, Processor: n.Processor, Kind: n.Kind,
		Baseline: n.Baseline, Mitigation: n.Mitigation, Experiment: n.Experiment,
		Hash: hash, Seed: seed,
	}
	var err error
	switch n.Role {
	case RoleChannel:
		err = runChannel(ctx, n, seed, res, r.Machines)
	case RoleBaseline:
		err = runBaseline(ctx, n, seed, res, r.Machines)
	case RoleSpy:
		err = runSpy(ctx, n, seed, res, r.Machines)
	case RoleMitigation:
		err = runMitigation(ctx, n, seed, res, r.Machines)
	case RoleExperiment:
		run := r.ExpRun
		if run == nil {
			run = exp.Run
		}
		res.Report, err = run(n.Experiment, seed)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// machineFor provisions the scenario's machine — requested operating
// point, core count, noise environment, seed — from the pool when one
// is set (nil constructs). The caller releases it back when the run is
// over.
func machineFor(n Scenario, proc model.Processor, seed int64, pool *soc.Pool) (*soc.Machine, error) {
	opts := soc.Options{
		Processor:     proc,
		RequestedFreq: effectiveFreq(n, proc),
		Cores:         effectiveCores(n, proc.Cores),
		Seed:          seed,
	}
	if no := n.Noise; no != nil {
		opts.Noise = soc.WithRates(no.InterruptsPerSec, no.CtxSwitchesPerSec)
		opts.TSCJitterCycles = no.TSCJitterCycles
	}
	return pool.Acquire(opts)
}

// effectiveFreq picks the requested operating point: the override, else
// max Turbo for TurboCC (its mechanism only exists at a Turbo point),
// else the profile's base frequency.
func effectiveFreq(n Scenario, proc model.Processor) units.Hertz {
	if n.Params != nil && n.Params.FreqGHz > 0 {
		return units.Hertz(n.Params.FreqGHz) * units.GHz
	}
	if n.Role == RoleBaseline && n.Baseline == BaselineTurboCC {
		return proc.MaxTurbo
	}
	return proc.BaseFreq
}

// sendBits materializes the payload: the literal payload (ECC-framed
// when coding is on), else deterministic pseudo-random bits drawn from a
// stream decoupled from the machine's noise randomness.
func sendBits(n Scenario, seed int64) ([]int, error) {
	if n.Payload == "" {
		rng := rand.New(rand.NewSource(seed ^ 0x1c4a11b5))
		bits := make([]int, n.Bits)
		for i := range bits {
			bits[i] = rng.Intn(2)
		}
		return bits, nil
	}
	if n.Coding != nil {
		return ecc.EncodeFrame([]byte(n.Payload), n.Coding.InterleaveDepth)
	}
	return ecc.BytesToBits([]byte(n.Payload)), nil
}

// finishTransmission fills the envelope fields shared by the channel
// and baseline roles.
func finishTransmission(res *Result, sent, decoded []int, ber, bps float64, elapsed units.Duration) {
	res.Bits = len(sent)
	res.SentBits = sent
	res.DecodedBits = decoded
	res.BER = ber
	res.ThroughputBPS = bps
	res.ElapsedSimUS = elapsed.Microseconds()
}

// decodePayload reassembles a byte payload from the decoded bit stream.
func decodePayload(n Scenario, res *Result) {
	if n.Payload == "" {
		return
	}
	if n.Coding != nil {
		payload, corrected, err := ecc.DecodeFrame(res.DecodedBits, n.Coding.InterleaveDepth)
		if err != nil {
			res.note("frame unrecoverable after channel errors: %v", err)
			return
		}
		res.DecodedPayload = string(payload)
		res.extra("ecc_corrected_bits", float64(corrected))
		return
	}
	raw, err := ecc.BitsToBytes(res.DecodedBits)
	if err != nil {
		res.note("decoded bit stream not byte-aligned: %v", err)
		return
	}
	res.DecodedPayload = string(raw)
}

// runChannel transmits over the spec's registered channel kind and
// records the kind's calibration gap and raw rate.
func runChannel(ctx context.Context, n Scenario, seed int64, res *Result, pool *soc.Pool) error {
	ks, ok := kindByName[n.Kind]
	if !ok {
		return errUnknownKind(n.Kind)
	}
	return transmit(ctx, n, seed, res, pool, ks.open)
}

// runBaseline transmits over one comparison channel.
func runBaseline(ctx context.Context, n Scenario, seed int64, res *Result, pool *soc.Pool) error {
	bs, ok := baselineByName[n.Baseline]
	if !ok {
		return fmt.Errorf("scenario: unknown baseline %q", n.Baseline)
	}
	return transmit(ctx, n, seed, res, pool, bs.open)
}

// transmit is the body of the channel and baseline roles: acquire the
// scenario's machine, open the channel on it, calibrate, draw the
// payload, transmit, and fill the envelope. The channel role also
// records the symbol errors, the calibration gap and the raw rate.
func transmit(ctx context.Context, n Scenario, seed int64, res *Result, pool *soc.Pool, open opener) error {
	proc, err := model.ByName(n.Processor)
	if err != nil {
		return err
	}
	m, err := machineFor(n, proc, seed, pool)
	if err != nil {
		return err
	}
	defer pool.Release(m)
	ch, rawBPS, err := open(m, n.Params)
	if err != nil {
		return err
	}
	gap, err := ch.Calibrate(effectiveCalibReps(n))
	if err != nil {
		return fmt.Errorf("scenario: calibration failed: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	bits, err := sendBits(n, seed)
	if err != nil {
		return err
	}
	tr, err := ch.Transmit(bits)
	if err != nil {
		return err
	}
	finishTransmission(res, tr.SentBits, tr.DecodedBits, tr.BER, tr.ThroughputBPS, tr.Elapsed)
	if n.Role == RoleChannel {
		res.SymbolErrors = tr.SymbolErrors
		res.extra("calibration_gap_cycles", gap)
		res.extra("raw_throughput_bps", rawBPS)
	}
	decodePayload(n, res)
	return nil
}

// runSpy calibrates the side-channel observer and has it classify a
// pseudo-random victim width sequence. Each observation window encodes
// its width-class index as 2 bits, so the spy slots into the same
// bits/BER/throughput envelope as the transmitting channels.
func runSpy(ctx context.Context, n Scenario, seed int64, res *Result, pool *soc.Pool) error {
	proc, err := model.ByName(n.Processor)
	if err != nil {
		return err
	}
	m, err := machineFor(n, proc, seed, pool)
	if err != nil {
		return err
	}
	defer pool.Release(m)
	kind, err := channelKind(n.Kind)
	if err != nil {
		return err
	}
	spy, err := core.NewSpy(m, kind)
	if err != nil {
		return err
	}
	if err := spy.Calibrate(effectiveCalibReps(n)); err != nil {
		return fmt.Errorf("scenario: spy calibration failed: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	widths := core.VictimWidths()
	windows := n.Bits / 2
	rng := rand.New(rand.NewSource(seed ^ 0x1c4a11b5))
	classes := make([]isa.Class, windows)
	for i := range classes {
		classes[i] = widths[rng.Intn(len(widths))]
	}
	inf, err := spy.Infer(classes)
	if err != nil {
		return err
	}
	sent, decoded := widthBits(inf.Actual), widthBits(inf.Inferred)
	elapsed := units.Duration(windows) * spy.Window
	bps := 0.0
	if elapsed > 0 {
		bps = float64(len(sent)) / elapsed.Seconds()
	}
	finishTransmission(res, sent, decoded, stats.BER(sent, decoded), bps, elapsed)
	res.extra("accuracy", inf.Accuracy)
	return nil
}

// widthBits encodes each spy window's class as the 2-bit index of its
// width in core.VictimWidths, high bit first.
func widthBits(cs []isa.Class) []int {
	widths := core.VictimWidths()
	out := make([]int, 0, 2*len(cs))
	for _, c := range cs {
		i := max(slices.Index(widths, c), 0)
		out = append(out, i>>1&1, i&1)
	}
	return out
}

// SpyWindows is the inverse of the spy role's bit encoding: it reads a
// spy Result's SentBits (or DecodedBits) back as the victim width class
// of each observation window.
func SpyWindows(bits []int) []isa.Class {
	widths := core.VictimWidths()
	out := make([]isa.Class, 0, len(bits)/2)
	for i := 0; i+1 < len(bits); i += 2 {
		out = append(out, widths[(bits[i]&1)<<1|bits[i+1]&1])
	}
	return out
}

// runMitigation grades one channel kind under one defense via the
// mitigation harness (which supplies its own standard noise
// environment — that is the published evaluation methodology).
func runMitigation(ctx context.Context, n Scenario, seed int64, res *Result, pool *soc.Pool) error {
	proc, err := model.ByName(n.Processor)
	if err != nil {
		return err
	}
	// Bound the machine like every other role (mitigate builds its own
	// machine from the profile, so shrink the profile).
	proc.Cores = effectiveCores(n, proc.Cores)
	mk, err := mitigationKind(n.Mitigation)
	if err != nil {
		return err
	}
	ks, ok := kindByName[n.Kind]
	if !ok {
		return errUnknownKind(n.Kind)
	}
	a, err := mitigate.Evaluate(ctx, pool, mk, ks.name, proc, n.Bits, seed,
		func(m *soc.Machine) (mitigate.Channel, error) {
			ch, _, err := ks.open(m, n.Params)
			return ch, err
		})
	if err != nil {
		return err
	}
	res.Bits = n.Bits
	res.BER = a.BER
	res.ThroughputBPS = a.EffectiveBPS
	res.Verdict = a.Verdict.String()
	res.extra("calibration_gap_cycles", a.CalibrationGap)
	return nil
}
