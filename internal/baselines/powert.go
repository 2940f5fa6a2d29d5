package baselines

import (
	"fmt"

	"ichannels/internal/channels"
	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// PowerT models Khatamifard et al.'s POWERT channel: the sender modulates
// the package's power/thermal state (here: die-stage junction temperature)
// by running a power virus, and the receiver polls the thermal sensor. The
// bit period rides the die thermal time constant (~15 ms), giving the
// ~122 b/s the paper quotes — still 24× below IChannels.
type PowerT struct {
	m *soc.Machine
	// BitPeriod is one bit window.
	BitPeriod units.Duration
	// HeatFraction is the fraction of the window the sender heats for a
	// 1 bit.
	HeatFraction float64
	// PollInterval is the receiver's thermal-sensor polling period.
	PollInterval units.Duration

	decoder channels.SlotDecoder
}

// NewPowerT builds the channel with sender on core 0 and receiver polling
// from core 1.
func NewPowerT(m *soc.Machine) (*PowerT, error) {
	if m == nil {
		return nil, fmt.Errorf("baselines: nil machine")
	}
	if len(m.Cores) < 2 {
		return nil, fmt.Errorf("baselines: PowerT needs two cores")
	}
	return &PowerT{
		m:            m,
		BitPeriod:    8200 * units.Microsecond, // ≈122 b/s
		HeatFraction: 0.6,
		PollInterval: 500 * units.Microsecond,
		decoder:      channels.NewSlotDecoder("baselines: powert", "thermal contrast", false),
	}, nil
}

// ptReceiver polls the thermal sensor through each window and records the
// start→end temperature delta. It keeps its own agent rather than a
// core.SlotReceiver because it reads a sensor across the whole window
// instead of timing one loop.
type ptReceiver struct {
	pt     *PowerT
	slots  core.Slots
	idx    int
	polls  int
	tStart float64
	tMax   float64
	deltas []float64
	phase  int // 0 wait-window, 1 polling
}

func (a *ptReceiver) Name() string { return "powert.receiver" }

func (a *ptReceiver) Next(env *soc.Env, prev *soc.Result) soc.Action {
	switch a.phase {
	case 0:
		if a.idx >= a.slots.N {
			return soc.Stop()
		}
		a.phase = 1
		a.polls = 0
		return soc.SpinUntil(a.slots.Start(a.idx))
	case 1:
		temp := float64(env.M.ProbeScalars().Temp)
		if a.polls == 0 {
			a.tStart = temp
			a.tMax = temp
		} else if temp > a.tMax {
			a.tMax = temp
		}
		a.polls++
		windowEnd := a.slots.Start(a.idx + 1)
		nextPoll := env.Now().Add(a.pt.PollInterval)
		if nextPoll.Add(a.pt.PollInterval/2) >= windowEnd {
			// Last poll of the window: decode on the peak rise over the
			// window (robust to tail-end cooling).
			a.deltas = append(a.deltas, a.tMax-a.tStart)
			a.idx++
			a.phase = 0
			return a.Next(env, nil)
		}
		return soc.IdleFor(a.pt.PollInterval)
	default:
		panic("baselines: powert receiver in invalid phase")
	}
}

// run heats for a 1 bit from the start of its window, running a power
// virus sized to roughly fill HeatFraction of it, while the receiver polls
// the thermal sensor.
func (p *PowerT) run(bits []int) ([]float64, error) {
	slots := core.Slots{Base: p.m.Now().Add(50 * units.Microsecond), Period: p.BitPeriod, N: len(bits)}
	snd := &core.SlotSender{Label: "powert.sender", Slots: slots, Send: func(k int) (soc.Action, bool) {
		if bits[k] == 0 {
			return soc.Action{}, false
		}
		heat := units.Duration(float64(p.BitPeriod) * p.HeatFraction)
		v := isa.Loop256Heavy
		return soc.Exec(v, int64(heat.Seconds()*float64(p.m.PMU.Frequency())/float64(v.UopsPerIter))+1), true
	}}
	rcv := &ptReceiver{pt: p, slots: slots}
	return core.RunSlots(p.m, slots, time500us, &rcv.deltas,
		core.Placed{Core: 0, Slot: 0, Agent: snd}, core.Placed{Core: 1, Slot: 0, Agent: rcv})
}

// Calibrate learns the heat/no-heat decision threshold.
func (p *PowerT) Calibrate(pairs int) (float64, error) { return p.decoder.Calibrate(pairs, p.run) }

// Transmit sends bits (1 bit per window) and decodes them.
func (p *PowerT) Transmit(bits []int) (*core.TransmitResult, error) {
	return p.decoder.Transmit(bits, p.run, p.BitPeriod)
}
