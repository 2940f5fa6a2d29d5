// Package mitigate implements and evaluates the paper's three proposed
// defenses (§7, Table 1):
//
//  1. Per-core voltage regulators (fast LDOs): each core handles its own
//     transitions, killing the cross-core serialization side-effect and
//     shrinking throttling periods below the noise floor (partial for the
//     same-thread and SMT channels).
//  2. Improved core throttling: only the PHI-issuing thread's uops are
//     blocked, so SMT siblings observe nothing.
//  3. Secure mode: the voltage is pinned at the worst-case power-virus
//     guardband, so PHI execution never triggers a transition at all.
//
// Evaluation builds a machine with the mitigation applied, attempts to
// calibrate and run a channel under realistic measurement noise, and
// grades the outcome. Channel is the one calibrate-then-transmit contract
// every channel family implements, so Evaluate grades the paper's
// variants, the internal/channels families and the baselines alike.
package mitigate

import (
	"context"
	"fmt"

	"ichannels/internal/core"
	"ichannels/internal/model"
	"ichannels/internal/pdn"
	"ichannels/internal/soc"
)

// Kind identifies a mitigation.
type Kind int

const (
	// None is the unmitigated baseline.
	None Kind = iota
	// PerCoreVR is mitigation 1: per-core LDO regulators.
	PerCoreVR
	// ImprovedThrottling is mitigation 2: per-thread PHI-only throttling.
	ImprovedThrottling
	// SecureMode is mitigation 3: worst-case guardband pinned.
	SecureMode
)

func (k Kind) String() string {
	switch k {
	case None:
		return "None"
	case PerCoreVR:
		return "Per-core VR"
	case ImprovedThrottling:
		return "Improved Throttling"
	case SecureMode:
		return "Secure-Mode"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Overhead describes the mitigation's cost, as reported in Table 1.
func (k Kind) Overhead() string {
	switch k {
	case PerCoreVR:
		return "11%-13% more area"
	case ImprovedThrottling:
		return "Some design effort"
	case SecureMode:
		return "4%-11% additional power"
	default:
		return "-"
	}
}

// Verdict grades a channel under a mitigation.
type Verdict int

const (
	// Unaffected: the channel still decodes essentially error-free.
	Unaffected Verdict = iota
	// Partial: the channel still exists but its error rate is
	// substantial (establishing it is "much more difficult", §7).
	Partial
	// Mitigated: the channel cannot be established (calibration finds
	// no usable signal, or decoding is at chance).
	Mitigated
)

func (v Verdict) String() string {
	switch v {
	case Unaffected:
		return "unaffected"
	case Partial:
		return "partial"
	case Mitigated:
		return "mitigated"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// MachineOptions returns the soc options that apply mitigation k to a
// processor, including the evaluation's standard noise environment (a
// modest interrupt load plus rdtsc jitter; the per-core-VR mitigation is
// only *partial* because its sub-µs residual TPs drown in exactly this
// noise).
func MachineOptions(k Kind, p model.Processor, seed int64) soc.Options {
	opts := soc.Options{
		Processor:       p,
		RequestedFreq:   p.BaseFreq,
		Noise:           soc.WithRates(300, 50),
		TSCJitterCycles: 150,
		Seed:            seed,
	}
	switch k {
	case PerCoreVR:
		ldo := pdn.DefaultConfig(pdn.LDO)
		opts.PerCoreVR = true
		opts.VROverride = &ldo
	case ImprovedThrottling:
		opts.PerThreadThrottle = true
	case SecureMode:
		opts.SecureMode = true
	}
	return opts
}

// Channel is the contract every covert-channel family implements: the
// paper's variants (*core.Channel), the internal/channels families and
// the internal/baselines channels. Calibrate learns a decision rule from
// reps known repetitions and returns the observed signal gap (in the
// family's measurement unit: cycles for the timing channels); Transmit
// sends a bit stream and decodes it with that rule.
type Channel interface {
	Calibrate(reps int) (gap float64, err error)
	Transmit(bits []int) (*core.TransmitResult, error)
}

// Factory builds a channel on an already-mitigated machine.
type Factory func(m *soc.Machine) (Channel, error)

// Assessment is the outcome of one (mitigation, channel) cell of Table 1.
type Assessment struct {
	Mitigation Kind
	// Channel names the graded channel (the core.Kind string for the
	// paper's variants, the scenario kind name for the other families).
	Channel string
	Verdict Verdict
	// BER is the measured bit error rate (0.5 ≈ chance when the channel
	// is dead; reported even when calibration failed, as 0.5).
	BER float64
	// CalibrationGap is the worst cluster separation seen during
	// calibration, in cycles (negative = overlapping clusters).
	CalibrationGap float64
	// EffectiveBPS is the error-free goodput estimate:
	// raw rate × (1 − BER) for intuition (0 when mitigated).
	EffectiveBPS float64
}

// berPartial and berDead are the verdict rule's cutoffs (see grade).
const (
	berPartial = 0.03
	berDead    = 0.35
)

// calibReps is the calibration depth of every evaluation, whatever the
// channel family.
const calibReps = 8

// grade is the verdict rule: it maps one evaluation's transmission to a
// verdict, the reported BER and the goodput estimate. A nil tr means
// calibration found no usable signal.
func grade(tr *core.TransmitResult) (v Verdict, ber, effectiveBPS float64) {
	switch {
	case tr == nil:
		return Mitigated, 0.5, 0
	case tr.BER >= berDead:
		return Mitigated, tr.BER, 0
	case tr.BER > berPartial:
		v = Partial
	default:
		v = Unaffected
	}
	return v, tr.BER, tr.ThroughputBPS * (1 - tr.BER)
}

// Evaluate grades one channel against mitigation k: acquire the
// mitigated machine from pool (nil constructs one; recycled machines
// replay byte-identically, so the pool only changes wall-clock), open
// the channel on it, calibrate (failure means the mitigation killed the
// signal), transmit nBits pseudo-random bits and grade the error rate.
// name labels the assessment. The operation order — acquire, open,
// calibrate, then draw payload bits from the machine's RNG — is part of
// the determinism contract. ctx is checked between calibration and
// transmission.
func Evaluate(ctx context.Context, pool *soc.Pool, k Kind, name string, proc model.Processor, nBits int, seed int64, open Factory) (*Assessment, error) {
	if nBits <= 0 || nBits%2 != 0 {
		return nil, fmt.Errorf("mitigate: nBits must be positive and even, got %d", nBits)
	}
	m, err := pool.Acquire(MachineOptions(k, proc, seed))
	if err != nil {
		return nil, err
	}
	defer pool.Release(m)
	ch, err := open(m)
	if err != nil {
		return nil, err
	}
	a := &Assessment{Mitigation: k, Channel: name}
	var tr *core.TransmitResult
	if gap, err := ch.Calibrate(calibReps); err == nil {
		a.CalibrationGap = gap
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bits := make([]int, nBits)
		rng := m.Rand()
		for i := range bits {
			bits[i] = rng.Intn(2)
		}
		if tr, err = ch.Transmit(bits); err != nil {
			return nil, err
		}
	}
	a.Verdict, a.BER, a.EffectiveBPS = grade(tr)
	return a, nil
}

// EvaluateAll builds the full Table 1 matrix for a processor: every
// mitigation × every channel (the SMT channel requires an SMT part).
func EvaluateAll(proc model.Processor, nBits int, seed int64) ([]*Assessment, error) {
	var out []*Assessment
	channels := []core.Kind{core.SameThread, core.SMT, core.CrossCore}
	// One pool across the matrix: the None and ImprovedThrottling and
	// SecureMode cells all share a machine shape, so most of the grid
	// reuses one SoC instead of rebuilding twelve.
	pool := soc.NewPool()
	for _, mk := range []Kind{None, PerCoreVR, ImprovedThrottling, SecureMode} {
		for _, ck := range channels {
			if ck == core.SMT && proc.SMTWays < 2 {
				continue
			}
			if ck == core.CrossCore && proc.Cores < 2 {
				continue
			}
			a, err := Evaluate(context.Background(), pool, mk, ck.String(), proc, nBits, seed+int64(mk)*17+int64(ck)*3,
				func(m *soc.Machine) (Channel, error) { return core.New(m, core.DefaultParams(ck, proc)) })
			if err != nil {
				return nil, fmt.Errorf("mitigate: %v × %v: %w", mk, ck, err)
			}
			out = append(out, a)
		}
	}
	return out, nil
}
