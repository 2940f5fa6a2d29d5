package baselines

import (
	"fmt"

	"ichannels/internal/channels"
	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// NetSpectre models the paper's comparison point for IccThreadCovert: the
// NetSpectre AVX-based gadget (§3, §6.2). The sender leaks one bit per
// transaction by either executing an AVX2 instruction (bit 1) or not
// (bit 0); the receiver then times its own AVX2 loop. A set bit leaves
// the voltage pre-ramped, so the measurement is fast; a clear bit makes
// the measurement pay the full throttling period. Single-level decoding →
// one bit per reset-time cycle, half of IccThreadCovert's rate.
type NetSpectre struct {
	m *soc.Machine
	// SlotPeriod is the transaction cycle (reset-time + send window).
	SlotPeriod units.Duration
	// TriggerIters sizes the bit-1 AVX2 burst; it must outlast the
	// voltage ramp so the later measurement sees a settled guardband.
	TriggerIters int64
	// MeasureIters sizes the timed AVX2 loop.
	MeasureIters int64

	decoder channels.SlotDecoder
	core    int
	slot    int
}

// NewNetSpectre builds the gadget on core 0 of m.
func NewNetSpectre(m *soc.Machine) (*NetSpectre, error) {
	if m == nil {
		return nil, fmt.Errorf("baselines: nil machine")
	}
	return &NetSpectre{
		m:            m,
		SlotPeriod:   m.Proc.LicenseHysteresis + 40*units.Microsecond,
		TriggerIters: 64,
		MeasureIters: 48,
		// A set bit leaves the voltage pre-ramped, so a 1 reads faster.
		decoder: channels.NewSlotDecoder("baselines: netspectre", "throttle contrast", true),
	}, nil
}

// nsAgent drives one transmission of the NetSpectre gadget.
type nsAgent struct {
	ns       *NetSpectre
	base     units.Time
	bits     []int
	idx      int
	phase    int // 0 wait, 1 send, 2 awaiting-trigger, 3 awaiting-measure
	measures []float64
}

func (a *nsAgent) Name() string { return "netspectre" }

func (a *nsAgent) Next(env *soc.Env, prev *soc.Result) soc.Action {
	switch a.phase {
	case 0: // slot boundary
		if a.idx >= len(a.bits) {
			return soc.Stop()
		}
		a.phase = 1
		return soc.SpinUntil(a.base.Add(units.Duration(a.idx) * a.ns.SlotPeriod))
	case 1: // start of slot: trigger on bit 1, else measure directly
		bit := a.bits[a.idx]
		a.idx++
		if bit == 1 {
			// The leak gadget executes its AVX2 instruction(s).
			a.phase = 2
			return soc.Exec(isa.Loop256Heavy, a.ns.TriggerIters)
		}
		a.phase = 3
		return soc.Exec(isa.Loop256Heavy, a.ns.MeasureIters)
	case 2: // trigger finished: measure
		a.phase = 3
		return soc.Exec(isa.Loop256Heavy, a.ns.MeasureIters)
	case 3: // measurement finished: record and wait for the next slot
		a.measures = append(a.measures, float64(prev.ElapsedTSC()))
		a.phase = 0
		return a.Next(env, nil)
	default:
		panic("baselines: netspectre agent in invalid phase")
	}
}

// run transmits raw bits and returns per-bit measurement cycles.
func (n *NetSpectre) run(bits []int) ([]float64, error) {
	base := n.m.Now().Add(20 * units.Microsecond)
	agent := &nsAgent{ns: n, base: base, bits: bits,
		measures: make([]float64, 0, len(bits))}
	if _, err := n.m.Bind(n.core, n.slot, agent); err != nil {
		return nil, err
	}
	end := base.Add(units.Duration(len(bits)) * n.SlotPeriod).Add(100 * units.Microsecond)
	n.m.RunUntil(end)
	return agent.measures, nil
}

// Calibrate learns the warm/cold decision threshold from n known 1/0
// transaction pairs.
func (n *NetSpectre) Calibrate(pairs int) (float64, error) { return n.decoder.Calibrate(pairs, n.run) }

// Transmit sends bits (1 bit per transaction) and decodes them.
func (n *NetSpectre) Transmit(bits []int) (*core.TransmitResult, error) {
	return n.decoder.Transmit(bits, n.run, n.SlotPeriod)
}
