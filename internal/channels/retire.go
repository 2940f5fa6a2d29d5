package channels

import (
	"fmt"

	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// Retire is a retirement-unit contention channel between SMT siblings
// (arXiv 2307.12486): the sender encodes 1 by running a scalar loop that
// competes for the core's shared uop delivery/retire bandwidth, and 0 by
// parking off-core. The receiver retires a fixed amount of scalar work each
// slot and reads its own CPU_CLK_UNHALTED delta — contended slots take ~2×
// the cycles of uncontended ones. Decoding from a performance counter
// rather than rdtsc gives the family its own spy path: timer fuzzing does
// not degrade it. Scalar kernels carry no PHI current, so the paper's
// license/throttle machinery (and all three mitigations) never engage.
type Retire struct {
	m *soc.Machine
	// SlotPeriod is one bit window.
	SlotPeriod units.Duration
	// SenderIters sizes each bit-1 contention burst; bursts repeat until
	// the slot is nearly over, so occupancy does not depend on the clock
	// frequency. Each burst must be shorter than contendTail even when
	// SMT sharing halves its rate.
	SenderIters int64
	// ReceiverIters sizes the fixed measurement loop.
	ReceiverIters int64
	// ReceiverOffset places the measurement after the slot boundary.
	ReceiverOffset units.Duration
	// Sender and receiver share a core on sibling hardware threads.
	SenderCore, SenderSlot     int
	ReceiverCore, ReceiverSlot int

	decoder SlotDecoder
}

// spinLead is how long before a slot boundary a parked sender resumes
// spinning so it reaches the boundary on-core. It must be shorter than the
// gap between the end of a receiver measurement and the next slot start.
const spinLead = 2 * units.Microsecond

// contendTail is how long before the slot boundary the sender stops
// issuing contention bursts, bounding how far the last burst can overrun
// into a following 0-slot.
const contendTail = 3 * units.Microsecond

// NewRetire builds the channel on sibling threads of core 0.
func NewRetire(m *soc.Machine) (*Retire, error) {
	if m == nil {
		return nil, fmt.Errorf("channels: nil machine")
	}
	if m.Proc.SMTWays < 2 {
		return nil, fmt.Errorf("channels: retire channel needs an SMT processor; %s has none", m.Proc.Name)
	}
	return &Retire{
		m:              m,
		SlotPeriod:     20 * units.Microsecond,
		SenderIters:    16,
		ReceiverIters:  64,
		ReceiverOffset: units.Microsecond,
		SenderCore:     0, SenderSlot: 0,
		ReceiverCore: 0, ReceiverSlot: 1,
		decoder: NewSlotDecoder("channels: retire", "retirement contention contrast", false),
	}, nil
}

// retireSender contends for the retire stage in 1-slots and parks off-core
// in 0-slots. It keeps its own agent: a 1-slot runs bursts until the slot
// is nearly over, and a 0-slot parks rather than spins.
type retireSender struct {
	r     *Retire
	slots core.Slots
	bits  []int
	idx   int
	phase int // 0 wait, 1 decide, 2 contend
}

func (a *retireSender) Name() string { return "retire.sender" }

func (a *retireSender) Next(env *soc.Env, prev *soc.Result) soc.Action {
	switch a.phase {
	case 0:
		if a.idx >= len(a.bits) {
			return soc.Stop()
		}
		a.phase = 1
		return soc.SpinUntil(a.slots.Start(a.idx))
	case 1:
		if a.bits[a.idx] == 0 {
			// Park off-core so the 0-slot runs uncontended, resuming
			// just before the next boundary to reach the spin loop.
			a.idx++
			a.phase = 0
			return soc.IdleFor(a.r.SlotPeriod - spinLead)
		}
		a.phase = 2
		return soc.Exec(isa.Loop64b, a.r.SenderIters)
	case 2:
		slotEnd := a.slots.Start(a.idx + 1)
		if env.Now() < slotEnd.Add(-contendTail) {
			return soc.Exec(isa.Loop64b, a.r.SenderIters)
		}
		a.idx++
		a.phase = 0
		return a.Next(env, nil)
	default:
		panic("channels: retire sender in invalid phase")
	}
}

// unhaltedCycles reads a measurement loop's CPU_CLK_UNHALTED delta: a
// counter, so TSC jitter never touches it.
func unhaltedCycles(res *soc.Result) float64 { return res.Counters.UnhaltedCycles }

func (r *Retire) run(bits []int) ([]float64, error) {
	slots := core.Slots{Base: r.m.Now().Add(20 * units.Microsecond), Period: r.SlotPeriod, N: len(bits)}
	snd := &retireSender{r: r, slots: slots, bits: bits}
	rcv := &core.SlotReceiver{Label: "retire.receiver", Slots: slots, Offset: r.ReceiverOffset,
		Kernel: isa.Loop64b, Iters: r.ReceiverIters, Read: unhaltedCycles}
	return core.RunSlots(r.m, slots, 50*units.Microsecond, &rcv.Measures,
		core.Placed{Core: r.SenderCore, Slot: r.SenderSlot, Agent: snd},
		core.Placed{Core: r.ReceiverCore, Slot: r.ReceiverSlot, Agent: rcv})
}

// Calibrate learns the contended/uncontended decision threshold from
// alternating 1,0 pairs and returns the mean cycle gap between them.
func (r *Retire) Calibrate(pairs int) (float64, error) { return r.decoder.Calibrate(pairs, r.run) }

// Transmit sends bits (1 bit per slot) and decodes them against the
// calibrated threshold.
func (r *Retire) Transmit(bits []int) (*core.TransmitResult, error) {
	return r.decoder.Transmit(bits, r.run, r.SlotPeriod)
}

// RawThroughputBPS is the slot-rate bound on throughput.
func (r *Retire) RawThroughputBPS() float64 {
	return 1 / r.SlotPeriod.Seconds()
}
