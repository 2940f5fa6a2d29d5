package sched

// Event-scheduler microbenchmarks: the timing wheel (Queue)
// against the container/heap reference (HeapQueue) on the three
// load shapes the simulator produces — dense near-future completions,
// sparse far-future timers (the wheel's overflow tier), and
// cancel-heavy reprice storms. Run with -benchmem: the wheel's
// free-listed nodes should show zero steady-state allocations.

import (
	"testing"

	"ichannels/internal/units"
)

// benchEvents is the working set per benchmark iteration — large enough
// to spread over many wheel buckets, small enough that one -benchtime 1x
// CI pass stays in microseconds.
const benchEvents = 4096

// benchRNG is a splitmix-style step: deterministic offsets without
// seeding a math/rand source inside the timed loop.
func benchRNG(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func benchScheduler(b *testing.B, mk func() Scheduler) {
	nop := func(units.Time) {}

	// dense: every delay lands inside the wheel horizon (≈1 ms), the
	// completion/PMU-decay steady state of a running simulation.
	b.Run("dense", func(b *testing.B) {
		q := mk()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rng := uint64(i)
			for j := 0; j < benchEvents; j++ {
				d := units.Duration(1 + benchRNG(&rng)%uint64(900*units.Microsecond))
				q.After(d, nop)
			}
			q.Run(benchEvents)
		}
	})

	// sparse: delays up to 100 ms, so most events enter far beyond the
	// wheel horizon and must migrate through the overflow tier.
	b.Run("sparse", func(b *testing.B) {
		q := mk()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rng := uint64(i)
			for j := 0; j < benchEvents; j++ {
				d := units.Duration(1 + benchRNG(&rng)%uint64(100*units.Millisecond))
				q.After(d, nop)
			}
			q.Run(benchEvents)
		}
	})

	// cancel: schedule near-future, immediately cancel 3 of every 4 —
	// the completion-reprice storm SMT co-scheduling produces.
	b.Run("cancel", func(b *testing.B) {
		q := mk()
		refs := make([]EventRef, benchEvents)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rng := uint64(i)
			for j := 0; j < benchEvents; j++ {
				d := units.Duration(1 + benchRNG(&rng)%uint64(900*units.Microsecond))
				refs[j] = q.After(d, nop)
			}
			fire := benchEvents
			for j, r := range refs {
				if j%4 != 0 {
					q.Cancel(r)
					fire--
				}
			}
			q.Run(uint64(fire))
		}
	})
}

func BenchmarkSchedWheel(b *testing.B) {
	benchScheduler(b, func() Scheduler { return NewQueue() })
}

func BenchmarkSchedHeap(b *testing.B) {
	benchScheduler(b, func() Scheduler { return NewHeapQueue() })
}
