package sched

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ichannels/internal/units"
)

// impls returns both Scheduler implementations; every behavioural test
// runs against each, so the wheel and the oracle share one contract.
func impls() map[string]func() Scheduler {
	return map[string]func() Scheduler{
		"wheel": func() Scheduler { return NewQueue() },
		"heap":  func() Scheduler { return NewHeapQueue() },
	}
}

func forEachImpl(t *testing.T, f func(t *testing.T, mk func() Scheduler)) {
	for name, mk := range impls() {
		t.Run(name, func(t *testing.T) { f(t, mk) })
	}
}

func TestFiresInTimeOrder(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		var got []int
		q.At(30, func(units.Time) { got = append(got, 3) })
		q.At(10, func(units.Time) { got = append(got, 1) })
		q.At(20, func(units.Time) { got = append(got, 2) })
		q.Run(0)
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("order = %v", got)
		}
		if q.Now() != 30 {
			t.Fatalf("now = %v", q.Now())
		}
	})
}

func TestSameTimeFIFO(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		var got []int
		for i := 0; i < 10; i++ {
			i := i
			q.At(5, func(units.Time) { got = append(got, i) })
		}
		q.Run(0)
		for i, v := range got {
			if v != i {
				t.Fatalf("same-timestamp events out of insertion order: %v", got)
			}
		}
	})
}

func TestCancel(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		fired := false
		e := q.At(10, func(units.Time) { fired = true })
		q.Cancel(e)
		q.Run(0)
		if fired {
			t.Fatal("cancelled event fired")
		}
		if !e.Cancelled() {
			t.Fatal("event should report cancelled")
		}
		// Cancelling again (and the zero handle) must be no-ops.
		q.Cancel(e)
		q.Cancel(EventRef{})
	})
}

func TestCancelMiddleKeepsOthers(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		var got []string
		a := q.At(1, func(units.Time) { got = append(got, "a") })
		b := q.At(2, func(units.Time) { got = append(got, "b") })
		c := q.At(3, func(units.Time) { got = append(got, "c") })
		_ = a
		q.Cancel(b)
		_ = c
		q.Run(0)
		if len(got) != 2 || got[0] != "a" || got[1] != "c" {
			t.Fatalf("got %v", got)
		}
	})
}

func TestHandleDiesOnFire(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		e := q.At(10, func(units.Time) {})
		if e.Cancelled() {
			t.Fatal("live handle reports cancelled")
		}
		if e.Time() != 10 {
			t.Fatalf("live handle: Time=%v", e.Time())
		}
		q.Run(0)
		if !e.Cancelled() {
			t.Fatal("fired event's handle should report cancelled")
		}
		if e.Time() != 0 {
			t.Fatalf("dead handle: Time=%v", e.Time())
		}
	})
}

// A handle to a fired event must stay dead even after the queue recycles
// the underlying node for a new event (the free-list ABA case the
// generation stamp exists for).
func TestStaleHandleAfterNodeReuse(t *testing.T) {
	q := NewQueue()
	old := q.At(10, func(units.Time) {})
	q.Run(0)
	fresh := q.At(20, func(units.Time) {})
	if !old.Cancelled() {
		t.Fatal("stale handle came back to life on node reuse")
	}
	if fresh.Cancelled() {
		t.Fatal("fresh handle reports cancelled")
	}
	// Cancelling the stale handle must not kill the new occupant.
	q.Cancel(old)
	if fresh.Cancelled() || q.Pending() != 1 {
		t.Fatalf("stale Cancel hit the recycled node: pending=%d", q.Pending())
	}
}

func TestAfter(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		q.At(100, func(units.Time) {})
		q.Step()
		var at units.Time
		q.After(50, func(now units.Time) { at = now })
		q.Run(0)
		if at != 150 {
			t.Fatalf("After fired at %v", at)
		}
	})
}

func TestAfterNegativeClamps(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		fired := false
		q.After(-5, func(units.Time) { fired = true })
		q.Run(0)
		if !fired || q.Now() != 0 {
			t.Fatalf("negative After: fired=%v now=%v", fired, q.Now())
		}
	})
}

func TestPastSchedulingPanics(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		q.At(10, func(units.Time) {})
		q.Step()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic when scheduling in the past")
			}
		}()
		q.At(5, func(units.Time) {})
	})
}

func TestNilCallbackPanics(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for nil callback")
			}
		}()
		q.At(5, nil)
	})
}

func TestRunUntil(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		var fired []units.Time
		for _, at := range []units.Time{10, 20, 30, 40} {
			at := at
			q.At(at, func(now units.Time) { fired = append(fired, now) })
		}
		q.RunUntil(25)
		if len(fired) != 2 {
			t.Fatalf("fired %v", fired)
		}
		if q.Now() != 25 {
			t.Fatalf("now = %v after RunUntil", q.Now())
		}
		q.RunUntil(100)
		if len(fired) != 4 {
			t.Fatalf("fired %v", fired)
		}
		if q.Now() != 100 {
			t.Fatalf("now = %v", q.Now())
		}
	})
}

func TestRunUntilBackwardsPanics(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		q.RunUntil(10)
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for backwards RunUntil")
			}
		}()
		q.RunUntil(5)
	})
}

func TestEventsScheduledDuringRun(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		var got []units.Time
		q.At(10, func(now units.Time) {
			got = append(got, now)
			q.At(now.Add(5), func(n2 units.Time) { got = append(got, n2) })
		})
		q.Run(0)
		if len(got) != 2 || got[1] != 15 {
			t.Fatalf("got %v", got)
		}
	})
}

func TestRunMaxEvents(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		count := 0
		var reschedule func(units.Time)
		reschedule = func(now units.Time) {
			count++
			q.At(now.Add(1), reschedule)
		}
		q.At(0, reschedule)
		n := q.Run(100)
		if n != 100 || count != 100 {
			t.Fatalf("ran %d events, callback count %d", n, count)
		}
		if q.Fired() != 100 {
			t.Fatalf("Fired = %d", q.Fired())
		}
	})
}

func TestPending(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		q := mk()
		if q.Pending() != 0 {
			t.Fatal("fresh queue not empty")
		}
		q.At(1, func(units.Time) {})
		q.At(2, func(units.Time) {})
		if q.Pending() != 2 {
			t.Fatalf("Pending = %d", q.Pending())
		}
		q.Step()
		if q.Pending() != 1 {
			t.Fatalf("Pending = %d", q.Pending())
		}
	})
}

// Events spread far beyond the ring horizon (the overflow tier) and dense
// near events must interleave in exact time order.
func TestOverflowTierOrdering(t *testing.T) {
	q := NewQueue()
	var got []units.Time
	rec := func(now units.Time) { got = append(got, now) }
	// Far events first (land in overflow), then near ones (land in ring).
	times := []units.Time{
		units.Time(5 * units.Millisecond), // ~5 ring horizons out
		units.Time(2 * units.Millisecond),
		units.Time(100 * units.Millisecond),
		units.Time(3 * units.Microsecond),
		units.Time(900 * units.Microsecond),
		units.Time(1),
	}
	for _, tm := range times {
		q.At(tm, rec)
	}
	q.Run(0)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("overflow interleaving out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Fatalf("fired %d of %d", len(got), len(times))
	}
}

// Steady-state scheduling must reuse nodes from the free list instead of
// allocating.
func TestWheelSteadyStateAllocFree(t *testing.T) {
	q := NewQueue()
	fn := func(units.Time) {}
	// Warm the free list.
	for i := 0; i < 64; i++ {
		q.After(units.Duration(i+1), fn)
	}
	q.Run(0)
	allocs := testing.AllocsPerRun(100, func() {
		e := q.After(10, fn)
		q.Cancel(e)
		q.After(5, fn)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/cancel/fire allocated %v per run", allocs)
	}
}

func TestQueueReset(t *testing.T) {
	q := NewQueue()
	fired := 0
	q.At(10, func(units.Time) { fired++ })
	q.At(units.Time(50*units.Millisecond), func(units.Time) { fired++ })
	q.Step()
	q.Reset()
	if q.Now() != 0 || q.Pending() != 0 || q.Fired() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d fired=%d", q.Now(), q.Pending(), q.Fired())
	}
	// A reset queue must replay exactly like a fresh one, including
	// sequence-number FIFO ordering at equal times.
	var got []int
	for i := 0; i < 4; i++ {
		i := i
		q.At(7, func(units.Time) { got = append(got, i) })
	}
	q.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("post-Reset FIFO broken: %v", got)
		}
	}
}

// TestResetReleasesRingAndOverflow: Reset walks only the occupied
// buckets, yet it must retire every pending node — ring buckets on both
// sides of a bitmap word boundary, a bucket holding several nodes, and
// the overflow heap — so the reset queue is empty, old handles are dead,
// and the recycled nodes schedule and fire correctly without allocating.
func TestResetReleasesRingAndOverflow(t *testing.T) {
	q := NewQueue()
	fn := func(units.Time) {}
	var refs []EventRef
	for _, b := range []int{1, 63, 64, 64, 200, 1023} {
		refs = append(refs, q.At(units.Time(b<<tickBits), fn))
	}
	for _, ms := range []int64{5, 9, 100} {
		refs = append(refs, q.At(units.Time(ms*int64(units.Millisecond)), fn))
	}
	q.Cancel(refs[4])
	q.Step() // advance past bucket 1 so the ring window has moved
	q.Reset()
	if q.Pending() != 0 || q.Now() != 0 || q.Fired() != 0 {
		t.Fatalf("after Reset: pending=%d now=%v fired=%d", q.Pending(), q.Now(), q.Fired())
	}
	for i, r := range refs {
		if !r.Cancelled() {
			t.Fatalf("handle %d survived Reset", i)
		}
	}
	if q.Step() {
		t.Fatal("a reset queue fired an event")
	}
	var got []units.Time
	rec := func(now units.Time) { got = append(got, now) }
	// Reuse the nine released nodes, in ring and overflow alike, in an
	// order that is not their firing order. Each run resets the queue
	// it just filled, so every run must schedule on recycled nodes.
	times := []units.Time{
		units.Time(50 * units.Millisecond), 30, units.Time(2 * units.Millisecond), 30, 10,
		units.Time(700 * units.Microsecond), 20, units.Time(40 * units.Millisecond), 1 << tickBits,
	}
	allocs := testing.AllocsPerRun(10, func() {
		q.Reset()
		for _, tm := range times {
			q.At(tm, rec)
		}
	})
	if allocs != 0 {
		t.Fatalf("reset and reschedule allocated %v per run", allocs)
	}
	if q.Pending() != len(times) {
		t.Fatalf("pending %d, want %d", q.Pending(), len(times))
	}
	q.Run(0)
	if len(got) != len(times) || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("recycled nodes fired out of order: %v", got)
	}
}

// Property: any randomly scheduled set of events fires in nondecreasing
// time order, on both implementations.
func TestPropertyOrdering(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		f := func(times []uint16) bool {
			q := mk()
			var fired []units.Time
			for _, tm := range times {
				q.At(units.Time(tm), func(now units.Time) { fired = append(fired, now) })
			}
			q.Run(0)
			if len(fired) != len(times) {
				return false
			}
			return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: cancelling a random subset removes exactly that subset.
func TestPropertyCancelSubset(t *testing.T) {
	forEachImpl(t, func(t *testing.T, mk func() Scheduler) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 50; trial++ {
			q := mk()
			n := 1 + rng.Intn(64)
			events := make([]EventRef, n)
			firedCount := 0
			for i := 0; i < n; i++ {
				events[i] = q.At(units.Time(rng.Intn(1000)), func(units.Time) { firedCount++ })
			}
			cancelled := 0
			for _, e := range events {
				if rng.Intn(2) == 0 {
					q.Cancel(e)
					cancelled++
				}
			}
			q.Run(0)
			if firedCount != n-cancelled {
				t.Fatalf("trial %d: fired %d, want %d", trial, firedCount, n-cancelled)
			}
		}
	})
}
