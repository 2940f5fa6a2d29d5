package baselines

import (
	"fmt"

	"ichannels/internal/channels"
	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// DFScovert models Alagappan et al.'s governor-based covert channel: a
// kernel-privileged sender modulates the DVFS governor's target frequency
// (a sysfs write that the governor applies on its sampling period, tens of
// milliseconds), and the receiver senses the package frequency with a
// timed loop. Actuation latency limits it to ~20 b/s (paper Fig. 12(b)).
type DFScovert struct {
	m *soc.Machine
	// BitPeriod is one bit window (must cover governor latency, the
	// P-state transition, and detection).
	BitPeriod units.Duration
	// GovernorLatency is the delay between the sysfs write and the
	// PMU seeing the new requested frequency.
	GovernorLatency units.Duration
	// LowFreq/HighFreq are the two operating points the sender toggles.
	LowFreq, HighFreq units.Hertz
	// MeasureIters sizes the receiver's scalar timing loop.
	MeasureIters int64
	// MeasureOffset places the measurement inside the bit window.
	MeasureOffset units.Duration

	decoder channels.SlotDecoder
}

// NewDFScovert builds the channel: sender actuation is software-only (no
// core pinned); the receiver times loops on core 1.
func NewDFScovert(m *soc.Machine) (*DFScovert, error) {
	if m == nil {
		return nil, fmt.Errorf("baselines: nil machine")
	}
	if len(m.Cores) < 2 {
		return nil, fmt.Errorf("baselines: DFScovert needs two cores")
	}
	base := m.Proc.BaseFreq
	return &DFScovert{
		m:               m,
		BitPeriod:       50 * units.Millisecond,
		GovernorLatency: 10 * units.Millisecond,
		LowFreq:         base / 2,
		HighFreq:        base,
		MeasureIters:    2000,
		MeasureOffset:   35 * units.Millisecond,
		decoder:         channels.NewSlotDecoder("baselines: dfscovert", "frequency contrast", false),
	}, nil
}

// run issues one governor write per bit window at its boundary and times
// the receiver's scalar loop inside it.
func (d *DFScovert) run(bits []int) ([]float64, error) {
	slots := core.Slots{Base: d.m.Now().Add(50 * units.Microsecond), Period: d.BitPeriod, N: len(bits)}
	// write[b] applies bit b's operating point once the governor acts.
	write := [2]func(units.Time){
		func(units.Time) { d.m.PMU.SetRequestedFrequency(d.HighFreq) },
		func(units.Time) { d.m.PMU.SetRequestedFrequency(d.LowFreq) },
	}
	snd := &core.SlotSender{Label: "dfscovert.sender", Slots: slots, Send: func(k int) (soc.Action, bool) {
		d.m.Q.After(d.GovernorLatency, write[bits[k]])
		return soc.Action{}, false
	}}
	rcv := &core.SlotReceiver{Label: "dfscovert.receiver", Slots: slots, Offset: d.MeasureOffset,
		Kernel: isa.Loop64b, Iters: d.MeasureIters}
	measures, err := core.RunSlots(d.m, slots, time500us, &rcv.Measures,
		core.Placed{Core: 0, Slot: 0, Agent: snd}, core.Placed{Core: 1, Slot: 0, Agent: rcv})
	// Restore the nominal operating point for whatever runs next.
	d.m.PMU.SetRequestedFrequency(d.HighFreq)
	d.m.RunFor(2 * units.Millisecond)
	return measures, err
}

// Calibrate learns the fast/slow decision threshold.
func (d *DFScovert) Calibrate(pairs int) (float64, error) { return d.decoder.Calibrate(pairs, d.run) }

// Transmit sends bits (1 bit per window) and decodes them.
func (d *DFScovert) Transmit(bits []int) (*core.TransmitResult, error) {
	return d.decoder.Transmit(bits, d.run, d.BitPeriod)
}
