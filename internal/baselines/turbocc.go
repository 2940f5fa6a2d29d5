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

// tcSender holds the PHI burst at each 1-bit window start.
type tcSender struct {
	tc   *TurboCC
	base units.Time
	bits []int
	idx  int
	sent bool
}

func (a *tcSender) Name() string { return "turbocc.sender" }

func (a *tcSender) Next(env *soc.Env, prev *soc.Result) soc.Action {
	if !a.sent {
		if a.idx >= len(a.bits) {
			return soc.Stop()
		}
		a.sent = true
		return soc.SpinUntil(a.base.Add(units.Duration(a.idx) * a.tc.BitPeriod))
	}
	bit := a.bits[a.idx]
	a.idx++
	a.sent = false
	if bit == 1 {
		k := isa.Loop512Heavy
		if !a.tc.m.Proc.HasAVX512 {
			k = isa.Loop256Heavy
		}
		return soc.Exec(k, a.tc.SenderIters)
	}
	// Bit 0: stay scalar; the clock keeps its Turbo bin.
	return a.Next(env, nil)
}

func (t *TurboCC) run(bits []int) ([]float64, error) {
	base := t.m.Now().Add(50 * units.Microsecond)
	snd := &tcSender{tc: t, base: base, bits: bits}
	rcv := &channels.TimingReceiver{Label: "turbocc.receiver", Base: base, Period: t.BitPeriod,
		Offset: t.MeasureOffset, Iters: t.MeasureIters, Windows: len(bits),
		Measures: make([]float64, 0, len(bits))}
	if _, err := t.m.Bind(0, 0, snd); err != nil {
		return nil, err
	}
	if _, err := t.m.Bind(1, 0, rcv); err != nil {
		return nil, err
	}
	end := base.Add(units.Duration(len(bits)) * t.BitPeriod).Add(time500us)
	t.m.RunUntil(end)
	return rcv.Measures, nil
}

// Calibrate learns the fast/slow decision threshold.
func (t *TurboCC) Calibrate(pairs int) (float64, error) { return t.decoder.Calibrate(pairs, t.run) }

// Transmit sends bits (1 bit per window) and decodes them; a slower loop
// means a lower frequency, i.e. a PHI burst, i.e. a 1.
func (t *TurboCC) Transmit(bits []int) (*core.TransmitResult, error) {
	return t.decoder.Transmit(bits, t.run, t.BitPeriod)
}
