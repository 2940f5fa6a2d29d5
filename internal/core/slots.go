package core

import (
	"fmt"

	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// Slots is the transaction clock every channel family runs on: N slots
// of Period, the first starting at Base. Sender and receiver busy-wait to
// the slot boundaries (wall-clock synchronization, paper §4.3.3), so the
// two sides agree on the clock without exchanging anything.
type Slots struct {
	Base   units.Time
	Period units.Duration
	N      int
}

// Start returns the absolute start time of slot k.
func (s Slots) Start(k int) units.Time { return s.Base.Add(units.Duration(k) * s.Period) }

// SlotAction returns the action a family runs in slot k. ok is false when
// the slot needs nothing run.
type SlotAction func(k int) (act soc.Action, ok bool)

// SlotSender is the sending side of the slot loop: in each slot it spins
// to the boundary, then runs the action Send returns for the slot. A slot
// with no action (a 0 bit, or an MSR or governor write Send queued
// itself) goes straight on to the next boundary.
type SlotSender struct {
	Label string
	Slots Slots
	Send  SlotAction

	k        int
	spinning bool
}

// Name implements soc.Agent.
func (s *SlotSender) Name() string { return s.Label }

// Next implements soc.Agent.
func (s *SlotSender) Next(env *soc.Env, prev *soc.Result) soc.Action {
	if s.spinning {
		s.spinning = false
		s.k++
		if act, ok := s.Send(s.k - 1); ok {
			return act
		}
	}
	if s.k >= s.Slots.N {
		return soc.Stop()
	}
	s.spinning = true
	return soc.SpinUntil(s.Slots.Start(s.k))
}

// slotStep is where a SlotReceiver is in its slot.
type slotStep int

const (
	stepStart slotStep = iota // before the first slot
	stepSpin
	stepBefore
	stepMeasure
)

// SlotReceiver is the measuring side of the slot loop: in each slot it
// spins to the boundary plus Offset, runs the action Before returns (if
// any) on its own thread, then runs Iters of Kernel and records one
// reading. The Before action is not measured.
type SlotReceiver struct {
	Label  string
	Slots  Slots
	Offset units.Duration
	// Before is the optional same-thread action: the sender's burst for
	// IccThreadCovert, the trigger for NetSpectre.
	Before SlotAction
	Kernel isa.Kernel
	Iters  int64
	// Read turns the measurement loop's result into the slot's reading;
	// nil reads its elapsed TSC cycles.
	Read func(*soc.Result) float64
	// Measures holds one reading per measured slot, in slot order. The
	// receiver empties it when it starts, first allocating room for
	// Slots.N readings unless the slice it was given already has it.
	Measures []float64

	k    int
	step slotStep
}

// Name implements soc.Agent.
func (r *SlotReceiver) Name() string { return r.Label }

// Next implements soc.Agent.
func (r *SlotReceiver) Next(env *soc.Env, prev *soc.Result) soc.Action {
	switch r.step {
	case stepSpin:
		if r.Before != nil {
			if act, ok := r.Before(r.k); ok {
				r.step = stepBefore
				return act
			}
		}
		fallthrough
	case stepBefore:
		r.step = stepMeasure
		return soc.Exec(r.Kernel, r.Iters)
	case stepMeasure:
		reading := float64(prev.ElapsedTSC())
		if r.Read != nil {
			reading = r.Read(prev)
		}
		r.Measures = append(r.Measures, reading)
		r.k++
	case stepStart:
		if cap(r.Measures) < r.Slots.N {
			r.Measures = make([]float64, 0, r.Slots.N)
		}
		r.Measures = r.Measures[:0]
	}
	if r.k >= r.Slots.N {
		return soc.Stop()
	}
	r.step = stepSpin
	return soc.SpinUntil(r.Slots.Start(r.k).Add(r.Offset))
}

// Placed is an agent and the hardware thread it runs on.
type Placed struct {
	Core, Slot int
	Agent      soc.Agent
}

// RunSlots is the slot loop: it binds agents in order, runs m to tail past
// the end of the last slot, and returns *measures, which must then hold
// one reading per slot.
func RunSlots(m *soc.Machine, slots Slots, tail units.Duration, measures *[]float64, agents ...Placed) ([]float64, error) {
	for _, a := range agents {
		if _, err := m.Bind(a.Core, a.Slot, a.Agent); err != nil {
			return nil, err
		}
	}
	m.RunUntil(slots.Start(slots.N).Add(tail))
	if len(*measures) != slots.N {
		return nil, fmt.Errorf("core: measured %d of %d slots (simulation ended early?)", len(*measures), slots.N)
	}
	return *measures, nil
}
