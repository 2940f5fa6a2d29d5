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
	// bits is the stream of the run in progress; trigger, bound once in
	// NewNetSpectre so a run allocates no closure, reads it.
	bits    []int
	trigger core.SlotAction
}

// NewNetSpectre builds the gadget on core 0 of m.
func NewNetSpectre(m *soc.Machine) (*NetSpectre, error) {
	if m == nil {
		return nil, fmt.Errorf("baselines: nil machine")
	}
	n := &NetSpectre{
		m:            m,
		SlotPeriod:   m.Proc.LicenseHysteresis + 40*units.Microsecond,
		TriggerIters: 64,
		MeasureIters: 48,
		// A set bit leaves the voltage pre-ramped, so a 1 reads faster.
		decoder: channels.NewSlotDecoder("baselines: netspectre", "throttle contrast", true),
	}
	n.trigger = n.leak
	return n, nil
}

// leak is the gadget's AVX2 trigger, run for a 1 bit in slot k.
func (n *NetSpectre) leak(k int) (soc.Action, bool) {
	return soc.Exec(isa.Loop256Heavy, n.TriggerIters), n.bits[k] == 1
}

// run transmits raw bits and returns per-bit measurement cycles. Each
// transaction runs the leak gadget's AVX2 trigger at the slot boundary
// for a 1 bit, then times the AVX2 measurement loop on the same thread.
func (n *NetSpectre) run(bits []int) ([]float64, error) {
	slots := core.Slots{Base: n.m.Now().Add(20 * units.Microsecond), Period: n.SlotPeriod, N: len(bits)}
	n.bits = bits
	agent := &core.SlotReceiver{Label: "netspectre", Slots: slots, Before: n.trigger,
		Kernel: isa.Loop256Heavy, Iters: n.MeasureIters}
	return core.RunSlots(n.m, slots, 100*units.Microsecond, &agent.Measures,
		core.Placed{Core: n.core, Slot: n.slot, Agent: agent})
}

// Calibrate learns the warm/cold decision threshold from n known 1/0
// transaction pairs.
func (n *NetSpectre) Calibrate(pairs int) (float64, error) { return n.decoder.Calibrate(pairs, n.run) }

// Transmit sends bits (1 bit per transaction) and decodes them.
func (n *NetSpectre) Transmit(bits []int) (*core.TransmitResult, error) {
	return n.decoder.Transmit(bits, n.run, n.SlotPeriod)
}
