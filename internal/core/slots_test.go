package core

import (
	"strings"
	"testing"

	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// testSlots is a three-slot clock starting at 100 µs.
var testSlots = Slots{Base: units.Time(100 * units.Microsecond), Period: 20 * units.Microsecond, N: 3}

// done returns the synthetic result of act, timed in TSC cycles.
func done(act soc.Action, tsc int64) *soc.Result {
	return &soc.Result{Action: act, EndTSC: tsc}
}

// wantSpin fails unless act spins to until.
func wantSpin(t *testing.T, act soc.Action, until units.Time) {
	t.Helper()
	if act.Kind != soc.ActSpinUntil || act.Until != until {
		t.Fatalf("got %v until %v, want spin until %v", act.Kind, act.Until, until)
	}
}

func TestSlotSenderSpinsToEachBoundary(t *testing.T) {
	burst := soc.Exec(isa.Loop512Heavy, 10)
	var asked []int
	s := &SlotSender{Label: "snd", Slots: testSlots, Send: func(k int) (soc.Action, bool) {
		asked = append(asked, k)
		// Slot 1 needs nothing run (a 0 bit, or a write queued here).
		return burst, k != 1
	}}
	act := s.Next(nil, nil)
	wantSpin(t, act, testSlots.Base)
	if act = s.Next(nil, done(act, 0)); act != burst {
		t.Fatalf("slot 0 action %+v, want the burst", act)
	}
	act = s.Next(nil, done(act, 0))
	wantSpin(t, act, testSlots.Base.Add(testSlots.Period))
	// The no-action slot goes straight on to the next boundary.
	act = s.Next(nil, done(act, 0))
	wantSpin(t, act, testSlots.Base.Add(2*testSlots.Period))
	if act = s.Next(nil, done(act, 0)); act != burst {
		t.Fatalf("slot 2 action %+v, want the burst", act)
	}
	if act = s.Next(nil, done(act, 0)); act.Kind != soc.ActStop {
		t.Fatalf("after N slots got %v, want stop", act.Kind)
	}
	if len(asked) != 3 || asked[0] != 0 || asked[1] != 1 || asked[2] != 2 {
		t.Fatalf("Send asked for slots %v, want [0 1 2]", asked)
	}
}

func TestSlotReceiverMeasuresEachSlot(t *testing.T) {
	const offset = 2 * units.Microsecond
	r := &SlotReceiver{Label: "rcv", Slots: testSlots, Offset: offset, Kernel: isa.Loop64b, Iters: 7}
	act := r.Next(nil, nil)
	for k := 0; k < testSlots.N; k++ {
		wantSpin(t, act, testSlots.Base.Add(units.Duration(k)*testSlots.Period+offset))
		act = r.Next(nil, done(act, 0))
		if act.Kind != soc.ActExec || act.Kernel.Name != isa.Loop64b.Name || act.Iters != 7 {
			t.Fatalf("slot %d: got %+v, want the measurement loop", k, act)
		}
		act = r.Next(nil, done(act, int64(1000*(k+1))))
	}
	if act.Kind != soc.ActStop {
		t.Fatalf("after N slots got %v, want stop", act.Kind)
	}
	want := []float64{1000, 2000, 3000}
	if len(r.Measures) != len(want) {
		t.Fatalf("measures %v, want %v", r.Measures, want)
	}
	for i := range want {
		if r.Measures[i] != want[i] {
			t.Fatalf("measures %v, want %v (elapsed TSC)", r.Measures, want)
		}
	}
}

func TestSlotReceiverBeforeActionIsNotMeasured(t *testing.T) {
	burst := soc.Exec(isa.Loop512Heavy, 10)
	r := &SlotReceiver{Label: "rcv", Slots: Slots{Base: testSlots.Base, Period: testSlots.Period, N: 2},
		Kernel: isa.Loop64b, Iters: 7,
		Before: func(k int) (soc.Action, bool) { return burst, k == 0 }}
	act := r.Next(nil, nil)
	wantSpin(t, act, testSlots.Base)
	// Slot 0: the same-thread action runs first, then the measurement.
	if act = r.Next(nil, done(act, 0)); act != burst {
		t.Fatalf("got %+v, want the same-thread action", act)
	}
	if act = r.Next(nil, done(act, 999999)); act.Kind != soc.ActExec || act.Iters != 7 {
		t.Fatalf("got %+v, want the measurement loop", act)
	}
	act = r.Next(nil, done(act, 40))
	wantSpin(t, act, testSlots.Base.Add(testSlots.Period))
	// Slot 1: Before returns no action, so the measurement runs at once.
	if act = r.Next(nil, done(act, 0)); act.Kind != soc.ActExec || act.Iters != 7 {
		t.Fatalf("got %+v, want the measurement loop", act)
	}
	if act = r.Next(nil, done(act, 50)); act.Kind != soc.ActStop {
		t.Fatalf("got %v, want stop", act.Kind)
	}
	if len(r.Measures) != 2 || r.Measures[0] != 40 || r.Measures[1] != 50 {
		t.Fatalf("measures %v, want [40 50]: the same-thread action is not a reading", r.Measures)
	}
}

func TestSlotReceiverReadOverridesTSC(t *testing.T) {
	r := &SlotReceiver{Label: "rcv", Slots: Slots{Base: testSlots.Base, Period: testSlots.Period, N: 1},
		Kernel: isa.Loop64b, Iters: 7,
		Read: func(res *soc.Result) float64 { return res.Counters.UnhaltedCycles }}
	act := r.Next(nil, nil)
	act = r.Next(nil, done(act, 0))
	res := done(act, 5000)
	res.Counters.UnhaltedCycles = 123
	if act = r.Next(nil, res); act.Kind != soc.ActStop {
		t.Fatalf("got %v, want stop", act.Kind)
	}
	if len(r.Measures) != 1 || r.Measures[0] != 123 {
		t.Fatalf("measures %v, want [123] from Read", r.Measures)
	}
}

func TestRunSlotsReportsUnmeasuredSlots(t *testing.T) {
	m := newQuietMachine(t, 11)
	slots := Slots{Base: m.Now().Add(20 * units.Microsecond), Period: 20 * units.Microsecond, N: 3}
	rcv := &SlotReceiver{Label: "rcv", Slots: slots, Offset: units.Microsecond, Kernel: isa.Loop64b, Iters: 64}
	// The run ends at the last slot's boundary, before its measurement.
	_, err := RunSlots(m, slots, -slots.Period, &rcv.Measures, Placed{Core: 0, Slot: 0, Agent: rcv})
	if err == nil || !strings.Contains(err.Error(), "measured 2 of 3 slots") {
		t.Fatalf("err = %v, want measured 2 of 3 slots", err)
	}
}
