package ichannels_test

// Machine-lifecycle microbenchmarks: building a simulated SoC from
// scratch (soc.New) against recycling one through the shape-keyed pool
// (soc.Pool.Acquire → Machine.Reset). Every sweep cell pays one Acquire,
// so its cost and allocations are a floor under each cell; a fresh
// build is paid once per pool miss.

import (
	"testing"

	"ichannels/internal/mitigate"
	"ichannels/internal/model"
	"ichannels/internal/soc"
)

// BenchmarkMachineNew builds a 2-core Cannon Lake machine per iteration.
func BenchmarkMachineNew(b *testing.B) {
	opts := mitigate.MachineOptions(mitigate.None, model.CannonLake8121U(), 1)
	opts.Cores = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := soc.New(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolAcquire acquires and releases a 2-core Cannon Lake machine
// per iteration, alternating two option sets of the same shape (no
// mitigation and improved throttling) so every Acquire goes through
// Reset and re-applies the knobs.
func BenchmarkPoolAcquire(b *testing.B) {
	var opts [2]soc.Options
	for i, k := range []mitigate.Kind{mitigate.None, mitigate.ImprovedThrottling} {
		opts[i] = mitigate.MachineOptions(k, model.CannonLake8121U(), int64(i+1))
		opts[i].Cores = 2
	}
	pool := soc.NewPool()
	m, err := pool.Acquire(opts[0])
	if err != nil {
		b.Fatal(err)
	}
	pool.Release(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := pool.Acquire(opts[i%2])
		if err != nil {
			b.Fatal(err)
		}
		pool.Release(m)
	}
	b.StopTimer()
	if st := pool.Stats(); st.Constructed != 1 {
		b.Fatalf("pool built %d machines, want 1", st.Constructed)
	}
}
