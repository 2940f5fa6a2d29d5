package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"ichannels/internal/units"
)

// TestWheelMatchesHeapOracle drives the timing wheel and the reference
// heap with the same randomized operation mix — schedule (near, far, and
// same-time), cancel, reschedule (cancel + re-add), Step, and RunUntil
// advances — and requires both to fire the same events at the same times
// in the same order. This is the determinism contract behind the
// byte-identical-output guarantee: identical (time, sequence) total order
// regardless of the queue's internal structure.
func TestWheelMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runOracleTrial(t, seed, 2000)
		})
	}
}

// firing is one observed event execution.
type firing struct {
	id int
	at units.Time
}

func runOracleTrial(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	wheel := Scheduler(NewQueue())
	oracle := Scheduler(NewHeapQueue())

	var wheelLog, oracleLog []firing
	type handles struct{ w, h EventRef }
	var live []handles
	nextID := 0

	schedule := func(d units.Duration) {
		id := nextID
		nextID++
		wRef := wheel.After(d, func(now units.Time) {
			wheelLog = append(wheelLog, firing{id: id, at: now})
		})
		hRef := oracle.After(d, func(now units.Time) {
			oracleLog = append(oracleLog, firing{id: id, at: now})
		})
		live = append(live, handles{w: wRef, h: hRef})
	}

	// Delay distribution mixes the simulator's real scales: sub-tick,
	// in-ring, and far past the overflow horizon.
	randDelay := func() units.Duration {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // dense near-future (within one bucket or a few)
			return units.Duration(rng.Int63n(int64(3 * units.Microsecond)))
		case 4, 5, 6: // mid-ring (license-hysteresis scale)
			return units.Duration(rng.Int63n(int64(900 * units.Microsecond)))
		case 7, 8: // beyond the ring horizon (frequency-restore scale)
			return units.Duration(rng.Int63n(int64(40 * units.Millisecond)))
		default: // exactly now (same-time FIFO ordering)
			return 0
		}
	}

	for op := 0; op < ops; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // schedule
			schedule(randDelay())
		case 4: // cancel a random live handle on both
			if len(live) > 0 {
				i := rng.Intn(len(live))
				wheel.Cancel(live[i].w)
				oracle.Cancel(live[i].h)
				live = append(live[:i], live[i+1:]...)
			}
		case 5: // reschedule: cancel then re-add at a fresh delay
			if len(live) > 0 {
				i := rng.Intn(len(live))
				wheel.Cancel(live[i].w)
				oracle.Cancel(live[i].h)
				live = append(live[:i], live[i+1:]...)
				schedule(randDelay())
			}
		case 6, 7: // fire one event
			sw := wheel.Step()
			so := oracle.Step()
			if sw != so {
				t.Fatalf("op %d: Step returned wheel=%v oracle=%v", op, sw, so)
			}
		case 8: // advance both clocks across a random window
			d := randDelay()
			wheel.RunUntil(wheel.Now().Add(d))
			oracle.RunUntil(oracle.Now().Add(d))
		case 9: // consistency probes
			if wheel.Now() != oracle.Now() {
				t.Fatalf("op %d: now diverged: wheel=%v oracle=%v", op, wheel.Now(), oracle.Now())
			}
			if wheel.Pending() != oracle.Pending() {
				t.Fatalf("op %d: pending diverged: wheel=%d oracle=%d", op, wheel.Pending(), oracle.Pending())
			}
			if wheel.Fired() != oracle.Fired() {
				t.Fatalf("op %d: fired diverged: wheel=%d oracle=%d", op, wheel.Fired(), oracle.Fired())
			}
		}
		// Dead handles must agree too (a cancelled/fired wheel handle may
		// sit on the free list; it must still read as cancelled).
		for i := range live {
			if live[i].w.Cancelled() != live[i].h.Cancelled() {
				t.Fatalf("op %d: handle %d liveness diverged", op, i)
			}
		}
	}

	// Drain everything that remains.
	wheel.Run(0)
	oracle.Run(0)

	if len(wheelLog) != len(oracleLog) {
		t.Fatalf("fired %d events on wheel, %d on oracle", len(wheelLog), len(oracleLog))
	}
	for i := range wheelLog {
		if wheelLog[i] != oracleLog[i] {
			t.Fatalf("firing %d diverged: wheel=%+v oracle=%+v", i, wheelLog[i], oracleLog[i])
		}
	}
	if wheel.Fired() != oracle.Fired() {
		t.Fatalf("final fired counts diverged: wheel=%d oracle=%d", wheel.Fired(), oracle.Fired())
	}
}
