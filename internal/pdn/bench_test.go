package pdn

// Regulator benchmark: the voltage-ramp arithmetic every license grant
// and decay pays. CI runs the simulator layers' benchmarks with
//
//	go test -run '^$' -bench . -benchmem ./internal/pdn ./internal/pmu ./internal/uarch
//
// and archives the output through tools/benchjson as BENCH_LAYERS.json.

import (
	"testing"

	"ichannels/internal/units"
)

// rampSamples is how many Voltage reads BenchmarkRegulatorStep takes
// across each ramp, endpoints included.
const rampSamples = 16

// benchVolt keeps the sampled voltages live so the reads are not
// optimized away.
var benchVolt units.Volt

// BenchmarkRegulatorStep commands one guardband step per iteration,
// alternating up and down between two voltages, and samples the output
// rampSamples times from the command to the settle time.
func BenchmarkRegulatorStep(b *testing.B) {
	r, err := newRegulator(testConfig(), 0.8)
	if err != nil {
		b.Fatal(err)
	}
	var now units.Time
	var sum units.Volt
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := units.Volt(0.8)
		if i%2 == 0 {
			v = 0.85
		}
		end := r.SetTarget(now, v)
		step := end.Sub(now) / (rampSamples - 1)
		for k := 0; k < rampSamples; k++ {
			sum += r.Voltage(now.Add(units.Duration(k) * step))
		}
		now = end
	}
	benchVolt = sum
}
