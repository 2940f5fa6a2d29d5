package channels

import (
	"fmt"

	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// ClockMod is a clock-modulation covert channel (arXiv 2404.05823): the
// sender programs the package duty cycle (IA32_CLOCK_MODULATION T-states)
// once per bit window — 1 gates the front-end to DutyLow, 0 restores full
// delivery — and the receiver times a fixed scalar loop inside each window.
// Unlike the DVFS carriers (TurboCC, DFScovert) duty changes take effect
// with MSR-write latency rather than governor sampling plus PLL relock, so
// the bit period is microseconds, not tens of milliseconds; the decode is
// the same windowed threshold those baselines use.
type ClockMod struct {
	m *soc.Machine
	// BitPeriod is one bit window.
	BitPeriod units.Duration
	// ActuationLatency is the delay between the sender's MSR write and
	// the duty change reaching the cores.
	ActuationLatency units.Duration
	// DutyLow is the modulated duty cycle encoding a 1 (in (0,1)).
	DutyLow float64
	// MeasureIters sizes the receiver's scalar timing loop.
	MeasureIters int64
	// MeasureOffset places the measurement inside the bit window.
	MeasureOffset units.Duration
	// The receiver times loops on its own core; the sender is a software
	// actor that only needs a thread to spin on.
	SenderCore, SenderSlot     int
	ReceiverCore, ReceiverSlot int

	decoder SlotDecoder
}

// NewClockMod builds the channel: sender on core 0, receiver timing on
// core 1 (duty modulation is package-wide, so any second core works).
func NewClockMod(m *soc.Machine) (*ClockMod, error) {
	if m == nil {
		return nil, fmt.Errorf("channels: nil machine")
	}
	if len(m.Cores) < 2 {
		return nil, fmt.Errorf("channels: clockmod channel needs two cores")
	}
	return &ClockMod{
		m:                m,
		BitPeriod:        120 * units.Microsecond,
		ActuationLatency: 2 * units.Microsecond,
		DutyLow:          0.25,
		MeasureIters:     200,
		MeasureOffset:    10 * units.Microsecond,
		SenderCore:       0, SenderSlot: 0,
		ReceiverCore: 1, ReceiverSlot: 0,
		decoder: NewSlotDecoder("channels: clockmod", "duty-cycle contrast", false),
	}, nil
}

// run issues one duty-cycle write per bit window at its boundary and
// times the receiver's scalar loop inside it. The receiver spins between
// measurements, so the package's active-core count, and with it the
// current budget, stays constant.
func (c *ClockMod) run(bits []int) ([]float64, error) {
	slots := core.Slots{Base: c.m.Now().Add(50 * units.Microsecond), Period: c.BitPeriod, N: len(bits)}
	// write[b] applies bit b's duty cycle once the MSR write lands.
	write := [2]func(units.Time){
		func(units.Time) { c.m.PMU.SetClockDuty(1) },
		func(units.Time) { c.m.PMU.SetClockDuty(c.DutyLow) },
	}
	snd := &core.SlotSender{Label: "clockmod.sender", Slots: slots, Send: func(k int) (soc.Action, bool) {
		c.m.Q.After(c.ActuationLatency, write[bits[k]])
		return soc.Action{}, false
	}}
	rcv := &core.SlotReceiver{Label: "clockmod.receiver", Slots: slots, Offset: c.MeasureOffset,
		Kernel: isa.Loop64b, Iters: c.MeasureIters}
	measures, err := core.RunSlots(c.m, slots, 100*units.Microsecond, &rcv.Measures,
		core.Placed{Core: c.SenderCore, Slot: c.SenderSlot, Agent: snd},
		core.Placed{Core: c.ReceiverCore, Slot: c.ReceiverSlot, Agent: rcv})
	// Restore full duty for whatever runs next on this machine.
	c.m.PMU.SetClockDuty(1)
	c.m.RunFor(100 * units.Microsecond)
	return measures, err
}

// Calibrate learns the modulated/unmodulated decision threshold from
// alternating 1,0 pairs and returns the mean TSC-cycle gap between them.
func (c *ClockMod) Calibrate(pairs int) (float64, error) { return c.decoder.Calibrate(pairs, c.run) }

// Transmit sends bits (1 bit per window) and decodes them against the
// calibrated threshold.
func (c *ClockMod) Transmit(bits []int) (*core.TransmitResult, error) {
	return c.decoder.Transmit(bits, c.run, c.BitPeriod)
}

// RawThroughputBPS is the window-rate bound on throughput.
func (c *ClockMod) RawThroughputBPS() float64 {
	return 1 / c.BitPeriod.Seconds()
}
