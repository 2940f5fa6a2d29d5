package baselines

import (
	"fmt"

	"ichannels/internal/channels"
	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// TurboCC models Kalmbach et al.'s cross-core frequency covert channel:
// the sender executes PHIs at Turbo so the Iccmax/Vccmax protection drops
// the (package-wide) clock; the receiver times a scalar loop to detect the
// lower frequency. The bit period is dominated by the PMU's slow
// frequency-restore hysteresis (tens of milliseconds), which is why the
// paper measures TurboCC at 61 b/s — nearly 50× below IChannels (§6.2).
//
// The machine must be configured at a Turbo operating point where the
// sender's PHI class trips a protection limit (e.g. Cannon Lake at
// 3.1 GHz with a 512b_Heavy sender).
type TurboCC struct {
	m *soc.Machine
	// BitPeriod is one bit window; it must cover downshift, detection,
	// and frequency restoration.
	BitPeriod units.Duration
	// SenderIters sizes the PHI burst that trips the limit.
	SenderIters int64
	// MeasureIters sizes the receiver's scalar timing loop.
	MeasureIters int64
	// MeasureOffset places the measurement inside the bit window, after
	// the downshift has surely happened but before restoration.
	MeasureOffset units.Duration

	decoder channels.SlotDecoder
}

// NewTurboCC builds the channel with sender on core 0 and receiver on
// core 1.
func NewTurboCC(m *soc.Machine) (*TurboCC, error) {
	if m == nil {
		return nil, fmt.Errorf("baselines: nil machine")
	}
	if len(m.Cores) < 2 {
		return nil, fmt.Errorf("baselines: TurboCC needs two cores")
	}
	restore := m.Proc.FreqRestoreDelay
	return &TurboCC{
		m:             m,
		BitPeriod:     restore + 1400*units.Microsecond,
		SenderIters:   12000, // ≈1.7 ms of 512b_Heavy at ~1 UPC / 2.9 GHz
		MeasureIters:  2000,  // ≈130 µs scalar timing loop
		MeasureOffset: 4 * units.Millisecond,
		decoder: channels.NewSlotDecoder("baselines: turbocc",
			"frequency contrast; is the machine at a Turbo operating point?", false),
	}, nil
}

// run holds the PHI burst from the start of each 1-bit window (a 0 bit
// stays scalar, so the clock keeps its Turbo bin) and times the
// receiver's scalar loop inside every window.
func (t *TurboCC) run(bits []int) ([]float64, error) {
	slots := core.Slots{Base: t.m.Now().Add(50 * units.Microsecond), Period: t.BitPeriod, N: len(bits)}
	burst := isa.Loop512Heavy
	if !t.m.Proc.HasAVX512 {
		burst = isa.Loop256Heavy
	}
	snd := &core.SlotSender{Label: "turbocc.sender", Slots: slots, Send: func(k int) (soc.Action, bool) {
		return soc.Exec(burst, t.SenderIters), bits[k] == 1
	}}
	rcv := &core.SlotReceiver{Label: "turbocc.receiver", Slots: slots, Offset: t.MeasureOffset,
		Kernel: isa.Loop64b, Iters: t.MeasureIters}
	return core.RunSlots(t.m, slots, time500us, &rcv.Measures,
		core.Placed{Core: 0, Slot: 0, Agent: snd}, core.Placed{Core: 1, Slot: 0, Agent: rcv})
}

// Calibrate learns the fast/slow decision threshold.
func (t *TurboCC) Calibrate(pairs int) (float64, error) { return t.decoder.Calibrate(pairs, t.run) }

// Transmit sends bits (1 bit per window) and decodes them; a slower loop
// means a lower frequency, i.e. a PHI burst, i.e. a 1.
func (t *TurboCC) Transmit(bits []int) (*core.TransmitResult, error) {
	return t.decoder.Transmit(bits, t.run, t.BitPeriod)
}
