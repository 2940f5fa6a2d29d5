// Package sched provides the deterministic discrete-event queue that drives
// the simulator. Events fire in (time, insertion-sequence) order, so two
// runs with the same inputs replay identically — a property the covert
// channel experiments rely on for reproducibility (randomness enters only
// through explicitly seeded noise models).
//
// The production Queue is a bucketed timing wheel sized to the simulator's
// event-time distribution (power-gate wakes at tens of ns, throttle slots
// at µs, license hysteresis at 650 µs, frequency restores at ms): a ring
// of ~1 µs buckets covering ~1 ms of future, an overflow heap for
// everything beyond the horizon, and a free list of event nodes so the
// steady state schedules without allocating. The tests keep the original
// container/heap implementation (HeapQueue, heap_test.go) as the
// conformance oracle; both fire in the identical (time, sequence) total
// order.
package sched

import (
	"container/heap"
	"fmt"
	"math/bits"

	"ichannels/internal/units"
)

// Wheel geometry. One bucket spans 2^tickBits picoseconds (~1.05 µs); the
// ring covers nBuckets ticks (~1.07 ms) of future beyond the current time.
// Events past the horizon wait in the overflow heap and migrate into the
// ring as the clock approaches them.
const (
	tickBits = 20 // bucket width: 2^20 ps ≈ 1.05 µs
	ringBits = 10 // ring size: 1024 buckets ≈ 1.07 ms horizon
	nBuckets = 1 << ringBits
	ringMask = nBuckets - 1
	nWords   = nBuckets / 64
)

// Event is one scheduled callback node. Nodes are owned by the queue and
// recycled through a free list after they fire or are cancelled; callers
// hold EventRef handles, never *Event.
type Event struct {
	at  units.Time
	fn  func(units.Time)
	seq uint64

	// gen invalidates outstanding EventRefs: it increments every time the
	// node dies (fires or is cancelled), so a stale handle to a recycled
	// node reports Cancelled instead of aliasing the new occupant.
	gen uint64

	// Intrusive location state: exactly one of the three holds.
	//   bucket >= 0           — linked into ring bucket `bucket`
	//   index >= 0            — at overflow-heap position `index`
	//   bucket < 0, index < 0 — dead (free list or oracle-retired)
	next, prev *Event
	bucket     int32
	index      int32
}

// EventRef is a caller-held handle to a scheduled event. The zero value
// behaves as an already-cancelled event, so callers can keep one field per
// logical timer and test or cancel it unconditionally.
type EventRef struct {
	e   *Event
	gen uint64
}

// Cancelled reports whether the event has been cancelled or already fired
// (a zero EventRef is cancelled).
func (r EventRef) Cancelled() bool { return r.e == nil || r.e.gen != r.gen }

// Time returns the scheduled fire time. It is meaningful only while the
// event is live (not Cancelled); afterwards it returns 0.
func (r EventRef) Time() units.Time {
	if r.Cancelled() {
		return 0
	}
	return r.e.at
}

// Queue is a deterministic event queue with a current simulated time,
// implemented as a timing wheel with an overflow heap. The zero value is
// not usable; call NewQueue.
type Queue struct {
	now   units.Time
	seq   uint64
	fired uint64
	npend int

	buckets  [nBuckets]*Event // bucket heads (doubly linked, unordered)
	occupied [nWords]uint64   // one bit per non-empty bucket
	overflow eventHeap        // events beyond the ring horizon, (at, seq)
	free     *Event           // dead nodes, chained through next
}

// NewQueue creates an empty queue at time zero.
func NewQueue() *Queue {
	return &Queue{}
}

// Now returns the current simulated time.
func (q *Queue) Now() units.Time { return q.now }

// Fired returns the number of events executed so far (for diagnostics).
func (q *Queue) Fired() uint64 { return q.fired }

// Pending returns the number of scheduled, uncancelled events.
func (q *Queue) Pending() int { return q.npend }

// tickOf maps a time to its wheel tick. Simulated time is never negative,
// so the unsigned shift is exact.
func tickOf(t units.Time) uint64 { return uint64(t) >> tickBits }

// alloc takes a node from the free list, or makes one.
func (q *Queue) alloc() *Event {
	if e := q.free; e != nil {
		q.free = e.next
		e.next = nil
		return e
	}
	return &Event{bucket: -1, index: -1}
}

// release retires a node: outstanding handles die (gen bump) and the node
// joins the free list for the next At.
func (q *Queue) release(e *Event) {
	e.gen++
	e.fn = nil
	e.prev = nil
	e.bucket = -1
	e.index = -1
	e.next = q.free
	q.free = e
}

// place links a live node into the ring (if its tick is within the
// horizon) or pushes it onto the overflow heap.
func (q *Queue) place(e *Event) {
	tick := tickOf(e.at)
	if tick < tickOf(q.now)+nBuckets {
		b := int(tick & ringMask)
		e.bucket = int32(b)
		e.prev = nil
		e.next = q.buckets[b]
		if e.next != nil {
			e.next.prev = e
		}
		q.buckets[b] = e
		q.occupied[b>>6] |= 1 << (uint(b) & 63)
		return
	}
	heap.Push(&q.overflow, e)
}

// unlink removes a live node from whichever tier holds it.
func (q *Queue) unlink(e *Event) {
	if b := e.bucket; b >= 0 {
		if e.prev != nil {
			e.prev.next = e.next
		} else {
			q.buckets[b] = e.next
			if e.next == nil {
				q.occupied[b>>6] &^= 1 << (uint(b) & 63)
			}
		}
		if e.next != nil {
			e.next.prev = e.prev
		}
		e.next, e.prev = nil, nil
		e.bucket = -1
		return
	}
	heap.Remove(&q.overflow, int(e.index))
}

// refill migrates overflow events whose ticks have come inside the ring
// horizon. Each event migrates at most once, so the cost is amortized into
// its original schedule.
func (q *Queue) refill() {
	horizon := tickOf(q.now) + nBuckets
	for len(q.overflow) > 0 && tickOf(q.overflow[0].at) < horizon {
		q.place(heap.Pop(&q.overflow).(*Event))
	}
}

// peekMin returns the earliest pending event, or nil. Ring events always
// precede overflow events (the overflow holds only ticks past the ring
// horizon after refill), so the scan is: first occupied bucket in circular
// tick order from now, then min-(at, seq) within it.
func (q *Queue) peekMin() *Event {
	if q.npend == 0 {
		return nil
	}
	q.refill()
	start := int(tickOf(q.now) & ringMask)
	if b := q.firstOccupied(start); b >= 0 {
		best := q.buckets[b]
		for e := best.next; e != nil; e = e.next {
			if e.at < best.at || (e.at == best.at && e.seq < best.seq) {
				best = e
			}
		}
		return best
	}
	if len(q.overflow) > 0 {
		return q.overflow[0]
	}
	return nil
}

// firstOccupied scans the occupancy bitmap for the first non-empty bucket
// in circular order from start. Buckets hold at most one distinct tick at
// a time (pending events all lie within one horizon of now), so circular
// order from now's bucket is earliest-tick order.
func (q *Queue) firstOccupied(start int) int {
	w := start >> 6
	if word := q.occupied[w] &^ ((1 << (uint(start) & 63)) - 1); word != 0 {
		return w<<6 + bits.TrailingZeros64(word)
	}
	for i := 1; i <= nWords; i++ {
		wi := (w + i) & (nWords - 1)
		if word := q.occupied[wi]; word != 0 {
			b := wi<<6 + bits.TrailingZeros64(word)
			// The first word is rescanned last for the bits below start
			// (ticks that wrapped to the far end of the window).
			if wi == w && b >= start {
				return -1
			}
			return b
		}
	}
	return -1
}

// At schedules fn to run at time t. Scheduling in the past panics: it
// would silently corrupt causality in the simulation.
func (q *Queue) At(t units.Time, fn func(units.Time)) EventRef {
	if t < q.now {
		panic(fmt.Sprintf("sched: event scheduled at %v, before now (%v)", t, q.now))
	}
	if fn == nil {
		panic(fmt.Sprintf("sched: event at %v has nil callback", t))
	}
	e := q.alloc()
	e.at, e.fn = t, fn
	e.seq = q.seq
	q.seq++
	q.npend++
	q.place(e)
	return EventRef{e: e, gen: e.gen}
}

// After schedules fn to run d after the current time.
func (q *Queue) After(d units.Duration, fn func(units.Time)) EventRef {
	if d < 0 {
		d = 0
	}
	return q.At(q.now.Add(d), fn)
}

// Cancel removes a scheduled event. Cancelling a zero, fired, or already-
// cancelled handle is a no-op, so callers can cancel unconditionally.
func (q *Queue) Cancel(r EventRef) {
	if r.Cancelled() {
		return
	}
	q.unlink(r.e)
	q.release(r.e)
	q.npend--
}

// Step fires the earliest pending event and returns true, or returns false
// if the queue is empty.
func (q *Queue) Step() bool {
	e := q.peekMin()
	if e == nil {
		return false
	}
	q.fire(e)
	return true
}

// fire pops e (which must be the pending minimum), advances the clock to
// it, retires the node, and runs the callback. The node is released before
// the callback so the callback can immediately reuse it via At; the gen
// bump keeps any handles to the fired event reporting Cancelled.
func (q *Queue) fire(e *Event) {
	q.unlink(e)
	q.npend--
	q.now = e.at
	q.fired++
	fn := e.fn
	q.release(e)
	fn(q.now)
}

// RunUntil fires events in order until the queue is exhausted or the next
// event is after t, then advances the clock to exactly t.
func (q *Queue) RunUntil(t units.Time) {
	if t < q.now {
		panic(fmt.Sprintf("sched: RunUntil(%v) is before now (%v)", t, q.now))
	}
	for {
		e := q.peekMin()
		if e == nil || e.at > t {
			break
		}
		q.fire(e)
	}
	q.now = t
}

// Run fires events until the queue is empty or maxEvents have fired.
// It returns the number of events fired. A maxEvents of 0 means no limit.
func (q *Queue) Run(maxEvents uint64) uint64 {
	var n uint64
	for q.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}

// Reset returns the queue to its initial state — time zero, no pending
// events, counters cleared — while keeping the node free list, so a pooled
// machine's next run schedules without allocating. Sequence numbers restart
// at zero: a reset queue replays exactly like a fresh one.
func (q *Queue) Reset() {
	// Only occupied buckets hold nodes: walk the bitmap, not the ring.
	for w, word := range q.occupied {
		for word != 0 {
			b := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			for e := q.buckets[b]; e != nil; {
				next := e.next
				q.release(e)
				e = next
			}
			q.buckets[b] = nil
		}
		q.occupied[w] = 0
	}
	for _, e := range q.overflow {
		e.index = -1
		q.release(e)
	}
	q.overflow = q.overflow[:0]
	q.now = 0
	q.seq = 0
	q.fired = 0
	q.npend = 0
}

// eventHeap orders events by (time, sequence). It backs both the wheel's
// overflow tier and the tests' reference HeapQueue.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = int32(len(*h))
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	e.index = -1
	return e
}
