package pmu

// PMU benchmarks: the license request path and the decay check, the
// single most frequently fired event origin in a Table 6 sweep. Run
//
//	go test -run '^$' -bench . -benchmem ./internal/pmu
//
// CI archives them with the other simulator layers as BENCH_LAYERS.json.

import (
	"testing"

	"ichannels/internal/isa"
	"ichannels/internal/units"
)

// BenchmarkRequestLicense runs one whole license cycle per iteration on
// a one-core PMU: an AVX2 request, the voltage ramp and grant, then the
// core going idle until the license decays back to scalar and the
// regulator retargets.
func BenchmarkRequestLicense(b *testing.B) {
	p, q, cores := newTestPMU(b, testConfig(), 1)
	c := cores[0]
	cycle := 2 * testConfig().LicenseHysteresis
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.busy, c.active = true, isa.Vec256Heavy
		p.RequestLicense(0, isa.Vec256Heavy)
		q.RunUntil(q.Now().Add(100 * units.Microsecond))
		c.busy, c.active = false, isa.Scalar64
		q.RunUntil(q.Now().Add(cycle))
		// The fake core logs every callback; keep its logs from growing
		// across iterations.
		c.granted, c.grantTimes, c.downgrades = c.granted[:0], c.grantTimes[:0], c.downgrades[:0]
	}
	b.StopTimer()
	if st := p.Stats(); st.Grants != uint64(b.N) || st.Downgrades != uint64(b.N) {
		b.Fatalf("%d iterations gave %d grants and %d downgrades", b.N, st.Grants, st.Downgrades)
	}
}

// BenchmarkDecayCheck runs the decay check that finds nothing to
// downgrade and re-arms itself — a core still executing AVX2 code —
// which is what most decay events do.
func BenchmarkDecayCheck(b *testing.B) {
	p, q, cores := newTestPMU(b, testConfig(), 1)
	cores[0].busy, cores[0].active = true, isa.Vec256Heavy
	p.RequestLicense(0, isa.Vec256Heavy)
	q.RunUntil(100 * units.Time(units.Microsecond))
	now := q.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Cancel(p.decayEv[0])
		p.decayCheck(0, now)
	}
	b.StopTimer()
	if p.Stats().Downgrades != 0 {
		b.Fatal("an active AVX2 core lost its license")
	}
}
