package scenario

import (
	"fmt"
	"math"
	"strings"

	"ichannels/internal/baselines"
	"ichannels/internal/channels"
	"ichannels/internal/core"
	"ichannels/internal/mitigate"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// This file is the single registry for every enum the Scenario spec
// exposes: channel kinds, baselines, and mitigations. Validate, the
// schema endpoint, Describe's error vocabulary, sweep axis validation,
// and the run dispatchers all read from these tables — adding an entry
// here is the whole job of adding a kind, and nothing else in the
// package may hand-list the names (registry_test.go enforces that the
// schema enums, the validate acceptance set, and these keys agree).

// kindSpec is one registered channel kind: its preconditions, defaults,
// and its constructor, which every role that runs the kind goes through.
type kindSpec struct {
	name string
	// describe is a one-line description for docs and CLI help; source
	// cites the design the family reproduces.
	describe string
	source   string
	// spyRole marks kinds the spy role accepts (every registered kind
	// is valid for roles channel and mitigation-eval).
	spyRole bool
	// requiresSMT / minCores are the topology preconditions Validate
	// enforces against the processor profile and params.cores.
	requiresSMT bool
	minCores    int
	// defaultBits / defaultCalibReps apply when the spec leaves the
	// fields zero.
	defaultBits      int
	defaultCalibReps int
	// noSenderIters rejects the params.sender_iters override for kinds
	// whose sender is a software actor with no loop length.
	noSenderIters bool
	// coreKind is the paper-variant enum for kinds backed by
	// core.Channel (hasCore false for the channels-package families).
	hasCore  bool
	coreKind core.Kind
	// open builds the kind's channel on a machine, applying the spec's
	// params overrides.
	open opener
}

// New channel-family kind names (the paper's three are declared in
// scenario.go).
const (
	KindRetire   = "retire"
	KindClockMod = "clockmod"
)

// kindRegistry lists every channel kind in canonical (documentation)
// order: the paper's three variants, then the adopted families.
var kindRegistry = []*kindSpec{
	{
		name:             KindThread,
		describe:         "same-thread multi-level current channel (IccThreadCovert)",
		source:           "IChannels, ISCA'21",
		defaultBits:      64,
		defaultCalibReps: 6,
		hasCore:          true,
		coreKind:         core.SameThread,
		open:             openCore(core.SameThread),
	},
	{
		name:             KindSMT,
		describe:         "SMT-sibling multi-level current channel (IccSMTcovert)",
		source:           "IChannels, ISCA'21",
		spyRole:          true,
		requiresSMT:      true,
		defaultBits:      64,
		defaultCalibReps: 6,
		hasCore:          true,
		coreKind:         core.SMT,
		open:             openCore(core.SMT),
	},
	{
		name:             KindCores,
		describe:         "cross-core multi-level current channel (IccCoresCovert)",
		source:           "IChannels, ISCA'21",
		spyRole:          true,
		minCores:         2,
		defaultBits:      64,
		defaultCalibReps: 6,
		hasCore:          true,
		coreKind:         core.CrossCore,
		open:             openCore(core.CrossCore),
	},
	{
		name:             KindRetire,
		describe:         "retirement-stage SMT contention, decoded from the receiver's own cycle counter",
		source:           "arXiv 2307.12486",
		requiresSMT:      true,
		defaultBits:      64,
		defaultCalibReps: 6,
		open:             openRetire,
	},
	{
		name:             KindClockMod,
		describe:         "clock-modulation (T-state duty cycle) carrier with windowed timing decode",
		source:           "arXiv 2404.05823",
		minCores:         2,
		defaultBits:      32,
		defaultCalibReps: 4,
		noSenderIters:    true,
		open:             openClockMod,
	},
}

// baselineSpec is one registered comparison channel.
type baselineSpec struct {
	name             string
	defaultBits      int
	defaultCalibReps int
	minCores         int
	open             opener
}

var baselineRegistry = []*baselineSpec{
	{BaselineNetSpectre, 64, 6, 0, openBaseline(baselines.NewNetSpectre)},
	{BaselineTurboCC, 12, 3, 2, openBaseline(baselines.NewTurboCC)},
	{BaselineDFScovert, 10, 3, 2, openBaseline(baselines.NewDFScovert)},
	{BaselinePowerT, 24, 4, 2, openBaseline(baselines.NewPowerT)},
}

// microseconds converts a spec's µs parameter to a Duration, scaling
// before it rounds so fractional values keep their sub-µs part.
func microseconds(us float64) units.Duration {
	return units.Duration(math.Round(us * float64(units.Microsecond)))
}

// opener builds a channel on a provisioned machine, applying the spec's
// params overrides (nil = none), and reports the channel's raw rate in
// bits per second.
type opener func(m *soc.Machine, p *Params) (ch mitigate.Channel, rawBPS float64, err error)

// openCore builds the opener of one of the paper's multi-level variants.
func openCore(kind core.Kind) opener {
	return func(m *soc.Machine, p *Params) (mitigate.Channel, float64, error) {
		params := core.DefaultParams(kind, m.Proc)
		if p != nil {
			if p.SlotPeriodUS > 0 {
				params.SlotPeriod = microseconds(p.SlotPeriodUS)
			}
			if p.SenderIters > 0 {
				params.SenderIters = p.SenderIters
			}
			if p.ReceiverIters > 0 {
				params.ReceiverIters = p.ReceiverIters
			}
			if p.ReceiverOffsetUS > 0 {
				params.ReceiverOffset = microseconds(p.ReceiverOffsetUS)
			}
		}
		ch, err := core.New(m, params)
		return ch, params.RawThroughputBPS(), err
	}
}

// openRetire opens the retirement-contention family.
func openRetire(m *soc.Machine, p *Params) (mitigate.Channel, float64, error) {
	ch, err := channels.NewRetire(m)
	if err != nil {
		return nil, 0, err
	}
	if p != nil {
		if p.SlotPeriodUS > 0 {
			ch.SlotPeriod = microseconds(p.SlotPeriodUS)
		}
		if p.SenderIters > 0 {
			ch.SenderIters = p.SenderIters
		}
		if p.ReceiverIters > 0 {
			ch.ReceiverIters = p.ReceiverIters
		}
		if p.ReceiverOffsetUS > 0 {
			ch.ReceiverOffset = microseconds(p.ReceiverOffsetUS)
		}
	}
	return ch, ch.RawThroughputBPS(), nil
}

// openClockMod opens the clock-modulation family. The generic slot and
// receiver knobs map onto its window vocabulary (slot_period_us → bit
// window, receiver_iters → measurement loop, receiver_offset_us →
// in-window measurement offset); sender_iters is rejected by validation
// since the sender is a single MSR write.
func openClockMod(m *soc.Machine, p *Params) (mitigate.Channel, float64, error) {
	ch, err := channels.NewClockMod(m)
	if err != nil {
		return nil, 0, err
	}
	if p != nil {
		if p.SlotPeriodUS > 0 {
			ch.BitPeriod = microseconds(p.SlotPeriodUS)
		}
		if p.ReceiverIters > 0 {
			ch.MeasureIters = p.ReceiverIters
		}
		if p.ReceiverOffsetUS > 0 {
			ch.MeasureOffset = microseconds(p.ReceiverOffsetUS)
		}
	}
	return ch, ch.RawThroughputBPS(), nil
}

// openBaseline adapts a baseline constructor to the opener shape. The
// baselines take no params overrides (validation rejects them) and
// report no raw rate.
func openBaseline[C mitigate.Channel](newChannel func(*soc.Machine) (C, error)) opener {
	return func(m *soc.Machine, _ *Params) (mitigate.Channel, float64, error) {
		ch, err := newChannel(m)
		return ch, 0, err
	}
}

// mitigationSpec maps a canonical mitigation name (plus accepted alias
// spellings) to the mitigate enum.
type mitigationSpec struct {
	name    string
	kind    mitigate.Kind
	aliases []string
}

var mitigationRegistry = []*mitigationSpec{
	{MitigationNone, mitigate.None, nil},
	{MitigationPerCoreVR, mitigate.PerCoreVR, []string{"per-core-vr", "percorevr"}},
	{MitigationImprovedThrottling, mitigate.ImprovedThrottling, nil},
	{MitigationSecureMode, mitigate.SecureMode, []string{"securemode"}},
}

// Lookup maps, built once from the tables above.
var (
	kindByName       = map[string]*kindSpec{}
	baselineByName   = map[string]*baselineSpec{}
	mitigationByName = map[string]*mitigationSpec{}
	// mitigationAliases folds accepted spellings onto the canonical
	// names (identity entries included, so Normalized can fold blindly).
	mitigationAliases = map[string]string{}
)

func init() {
	for _, ks := range kindRegistry {
		kindByName[ks.name] = ks
	}
	for _, bs := range baselineRegistry {
		baselineByName[bs.name] = bs
	}
	for _, ms := range mitigationRegistry {
		mitigationByName[ms.name] = ms
		mitigationAliases[ms.name] = ms.name
		for _, a := range ms.aliases {
			mitigationAliases[a] = ms.name
		}
	}
}

// ChannelKindNames returns every registered channel kind in canonical
// order (all of them are valid for roles channel and mitigation-eval).
func ChannelKindNames() []string {
	out := make([]string, len(kindRegistry))
	for i, ks := range kindRegistry {
		out[i] = ks.name
	}
	return out
}

// SpyKindNames returns the kinds the spy role accepts, in canonical order.
func SpyKindNames() []string {
	var out []string
	for _, ks := range kindRegistry {
		if ks.spyRole {
			out = append(out, ks.name)
		}
	}
	return out
}

// BaselineNames returns every registered baseline in canonical order.
func BaselineNames() []string {
	out := make([]string, len(baselineRegistry))
	for i, bs := range baselineRegistry {
		out[i] = bs.name
	}
	return out
}

// MitigationNames returns every canonical mitigation name in order.
func MitigationNames() []string {
	out := make([]string, len(mitigationRegistry))
	for i, ms := range mitigationRegistry {
		out[i] = ms.name
	}
	return out
}

// KindSource returns the source-paper citation for a registered kind
// ("" for unknown names) — surfaced by docs and CLI help.
func KindSource(kind string) string {
	if ks, ok := kindByName[kind]; ok {
		return ks.source
	}
	return ""
}

// KindDescribe returns the one-line description for a registered kind
// ("" for unknown names).
func KindDescribe(kind string) string {
	if ks, ok := kindByName[kind]; ok {
		return ks.describe
	}
	return ""
}

// roleNames returns the role vocabulary in documentation order.
func roleNames() []string {
	return []string{RoleChannel, RoleBaseline, RoleSpy, RoleMitigation, RoleExperiment}
}

// bitsDefaultsDesc renders the registry's default payload sizes for the
// schema's bits description (kinds, then the spy role, then baselines).
func bitsDefaultsDesc() string {
	var parts []string
	for _, ks := range kindRegistry {
		parts = append(parts, fmt.Sprintf("%s %d", ks.name, ks.defaultBits))
	}
	parts = append(parts, fmt.Sprintf("spy %d", defaultBits(RoleSpy, "", "")))
	for _, bs := range baselineRegistry {
		parts = append(parts, fmt.Sprintf("%s %d", bs.name, bs.defaultBits))
	}
	return strings.Join(parts, ", ")
}

// orList renders names as an "a, b, or c" clause for error messages, so
// every surface's vocabulary listing is generated from the registry.
func orList(names []string) string {
	switch len(names) {
	case 0:
		return ""
	case 1:
		return names[0]
	case 2:
		return names[0] + " or " + names[1]
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}
