package uarch

// Core benchmark: repriceAll, which every frequency, duty, halt and
// license change runs — accrue each thread's progress, apply the
// change, recompute rates and reschedule completions. Run
//
//	go test -run '^$' -bench . -benchmem ./internal/uarch
//
// CI archives it with the other simulator layers as BENCH_LAYERS.json.

import (
	"testing"

	"ichannels/internal/isa"
)

// BenchmarkRepriceAll toggles the throttle of a busy two-thread core
// once per iteration, one picosecond apart, the way a license grant
// lifts it. The scalar loops are long enough that neither thread
// completes during the run, so every reprice cancels and reschedules
// both completion events.
func BenchmarkRepriceAll(b *testing.B) {
	c, q, _ := newTestCore(b, testCoreConfig(), -1)
	for slot := 0; slot < 2; slot++ {
		c.Start(slot, isa.Loop64b, 1000, nil)
	}
	now := q.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(1)
		on := i%2 == 0
		c.repriceAll(now, func() { c.setThrottle(on, now) })
	}
	b.StopTimer()
	if c.BusyThreads() != 2 {
		b.Fatalf("%d busy threads after the run, want 2", c.BusyThreads())
	}
}
