package sched

import (
	"container/heap"
	"fmt"

	"ichannels/internal/units"
)

// HeapQueue is the original container/heap event queue, kept as the
// conformance oracle for the timing-wheel Queue: the property tests drive
// both with identical operation sequences and require identical firing
// order, and the scheduler microbenchmarks compare them on the same
// workloads. It implements the same Scheduler interface and EventRef
// handle semantics (handles die when the event fires or is cancelled),
// but retires nodes to the garbage collector instead of a free list —
// simplicity over speed, as befits an oracle.
type HeapQueue struct {
	now    units.Time
	events eventHeap
	seq    uint64
	fired  uint64
}

// NewHeapQueue creates an empty reference queue at time zero.
func NewHeapQueue() *HeapQueue {
	return &HeapQueue{}
}

// Now returns the current simulated time.
func (q *HeapQueue) Now() units.Time { return q.now }

// Fired returns the number of events executed so far.
func (q *HeapQueue) Fired() uint64 { return q.fired }

// Pending returns the number of scheduled, uncancelled events.
func (q *HeapQueue) Pending() int { return q.events.Len() }

// At schedules fn to run at time t, panicking on past times and nil
// callbacks exactly like Queue.At.
func (q *HeapQueue) At(t units.Time, fn func(units.Time)) EventRef {
	if t < q.now {
		panic(fmt.Sprintf("sched: event scheduled at %v, before now (%v)", t, q.now))
	}
	if fn == nil {
		panic(fmt.Sprintf("sched: event at %v has nil callback", t))
	}
	e := &Event{at: t, fn: fn, seq: q.seq, bucket: -1, index: -1}
	q.seq++
	heap.Push(&q.events, e)
	return EventRef{e: e, gen: e.gen}
}

// After schedules fn to run d after the current time.
func (q *HeapQueue) After(d units.Duration, fn func(units.Time)) EventRef {
	if d < 0 {
		d = 0
	}
	return q.At(q.now.Add(d), fn)
}

// Cancel removes a scheduled event; zero, fired, or already-cancelled
// handles are no-ops.
func (q *HeapQueue) Cancel(r EventRef) {
	if r.Cancelled() {
		return
	}
	heap.Remove(&q.events, int(r.e.index))
	r.e.gen++
	r.e.fn = nil
}

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty.
func (q *HeapQueue) Step() bool {
	if q.events.Len() == 0 {
		return false
	}
	e := heap.Pop(&q.events).(*Event)
	q.now = e.at
	q.fired++
	fn := e.fn
	e.gen++
	e.fn = nil
	fn(q.now)
	return true
}

// RunUntil fires events in order until the queue is exhausted or the next
// event is after t, then advances the clock to exactly t.
func (q *HeapQueue) RunUntil(t units.Time) {
	if t < q.now {
		panic(fmt.Sprintf("sched: RunUntil(%v) is before now (%v)", t, q.now))
	}
	for q.events.Len() > 0 && q.events[0].at <= t {
		q.Step()
	}
	q.now = t
}

// Run fires events until the queue is empty or maxEvents have fired.
// It returns the number of events fired. A maxEvents of 0 means no limit.
func (q *HeapQueue) Run(maxEvents uint64) uint64 {
	var n uint64
	for q.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}
