package baselines

import (
	"fmt"

	"ichannels/internal/channels"
	"ichannels/internal/core"
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

// dfsSender issues one governor write per bit window.
type dfsSender struct {
	d    *DFScovert
	base units.Time
	bits []int
	idx  int
}

func (a *dfsSender) Name() string { return "dfscovert.sender" }

func (a *dfsSender) Next(env *soc.Env, prev *soc.Result) soc.Action {
	if prev != nil {
		// The spin to the window boundary completed: write the governor.
		bit := a.bits[a.idx]
		a.idx++
		target := a.d.HighFreq
		if bit == 1 {
			target = a.d.LowFreq
		}
		env.M.Q.After(a.d.GovernorLatency, func(units.Time) {
			env.M.PMU.SetRequestedFrequency(target)
		})
	}
	if a.idx >= len(a.bits) {
		return soc.Stop()
	}
	return soc.SpinUntil(a.base.Add(units.Duration(a.idx) * a.d.BitPeriod))
}

func (d *DFScovert) run(bits []int) ([]float64, error) {
	base := d.m.Now().Add(50 * units.Microsecond)
	snd := &dfsSender{d: d, base: base, bits: bits}
	rcv := &channels.TimingReceiver{Label: "dfscovert.receiver", Base: base, Period: d.BitPeriod,
		Offset: d.MeasureOffset, Iters: d.MeasureIters, Windows: len(bits),
		Measures: make([]float64, 0, len(bits))}
	if _, err := d.m.Bind(0, 0, snd); err != nil {
		return nil, err
	}
	if _, err := d.m.Bind(1, 0, rcv); err != nil {
		return nil, err
	}
	end := base.Add(units.Duration(len(bits)) * d.BitPeriod).Add(time500us)
	d.m.RunUntil(end)
	// Restore the nominal operating point for whatever runs next.
	d.m.PMU.SetRequestedFrequency(d.HighFreq)
	d.m.RunFor(2 * units.Millisecond)
	return rcv.Measures, nil
}

// Calibrate learns the fast/slow decision threshold.
func (d *DFScovert) Calibrate(pairs int) (float64, error) { return d.decoder.Calibrate(pairs, d.run) }

// Transmit sends bits (1 bit per window) and decodes them.
func (d *DFScovert) Transmit(bits []int) (*core.TransmitResult, error) {
	return d.decoder.Transmit(bits, d.run, d.BitPeriod)
}
