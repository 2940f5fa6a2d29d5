package ichannels_test

// One benchmark per paper table/figure: each regenerates the artifact and
// reports its headline metrics via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the reproduction harness.

import (
	"context"
	"fmt"
	"os"
	"testing"

	"ichannels"
)

// benchedExperiments maps every benchmarked experiment ID to the
// headline metrics its benchmark reports. TestBenchmarkSpecsValidate
// checks the table against the live registry, so a renamed or removed
// experiment breaks the test step, not the bench step.
var benchedExperiments = map[string][]string{
	"fig6a":    {"vcc_delta_core1_mv", "vcc_delta_both_mv"},
	"fig6b":    {"vcc_delta_max_mv"},
	"fig7a":    {"case1_settled_ghz", "case4_settled_ghz"},
	"fig7b":    {"freq_AVX512_ghz", "temp_AVX2_c"},
	"fig8a":    {"tp_mean_us_Haswell", "tp_mean_us_Cannon_Lake"},
	"fig8bc":   {"first_iter_delta_ns_Coffee_Lake"},
	"fig9":     {"a_min_ipc_ratio", "b_wake_fraction_pct"},
	"fig10a":   {"two_core_ratio_256H_1GHz", "tp_512H_1.4GHz_1core_us"},
	"fig10b":   {"tp512_after_64b_us"},
	"fig11":    {"throttled_undelivered_frac"},
	"fig12a":   {"iccthread_bps", "ratio"},
	"fig12b":   {"iccsmt_bps", "ratio_vs_powert"},
	"fig13":    {"separable_gt_2k_cycles"},
	"fig14a":   {"ber_irq_10000"},
	"fig14b":   {"ser_app512b_Heavy_symL4"},
	"fig14c":   {"ber_rate_10000"},
	"sevenzip": {"ber"},
	"server":   {"ber_IccCoresCovert"},
	"table1":   {"ber_Secure-Mode_IccThreadCovert"},
	"table2":   {"ichannels_bw_bps"},
}

func benchExperiment(b *testing.B, id string) {
	metrics, ok := benchedExperiments[id]
	if !ok {
		b.Fatalf("experiment %s is not in benchedExperiments", id)
	}
	var rep *ichannels.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = ichannels.RunExperiment(id, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := rep.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

func BenchmarkFig6a(b *testing.B) { benchExperiment(b, "fig6a") }

func BenchmarkFig6b(b *testing.B) { benchExperiment(b, "fig6b") }

func BenchmarkFig7a(b *testing.B) { benchExperiment(b, "fig7a") }

func BenchmarkFig7b(b *testing.B) { benchExperiment(b, "fig7b") }

func BenchmarkFig8a(b *testing.B) { benchExperiment(b, "fig8a") }

func BenchmarkFig8bc(b *testing.B) { benchExperiment(b, "fig8bc") }

func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

func BenchmarkFig10a(b *testing.B) { benchExperiment(b, "fig10a") }

func BenchmarkFig10b(b *testing.B) { benchExperiment(b, "fig10b") }

func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a") }

func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b") }

func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

func BenchmarkFig14a(b *testing.B) { benchExperiment(b, "fig14a") }

func BenchmarkFig14b(b *testing.B) { benchExperiment(b, "fig14b") }

func BenchmarkFig14c(b *testing.B) { benchExperiment(b, "fig14c") }

func BenchmarkSevenZip(b *testing.B) { benchExperiment(b, "sevenzip") }

// BenchmarkServer covers the §6.4 Skylake-SP extension — the smoke
// test found it registered but unbenchmarked, a hole in the perf
// trajectory.
func BenchmarkServer(b *testing.B) { benchExperiment(b, "server") }

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationSerializedVR compares the cross-core channel's level
// separability with the serialized shared VR (the real mechanism) against
// per-core VRs (serialization removed): the covert signal collapses.
func BenchmarkAblationSerializedVR(b *testing.B) {
	run := func(perCore bool, seed int64) float64 {
		proc := ichannels.CannonLake8121U()
		opts := ichannels.MachineOptions{Processor: proc, Seed: seed}
		if perCore {
			opts = ichannels.MitigatedMachineOptions(ichannels.PerCoreVR, proc, seed)
			opts.Noise = ichannels.NoiseConfig{}
			opts.TSCJitterCycles = 0
		}
		m, err := ichannels.NewMachine(opts)
		if err != nil {
			b.Fatal(err)
		}
		ch, err := ichannels.NewChannel(m, ichannels.DefaultChannelParams(ichannels.CrossCore, proc))
		if err != nil {
			b.Fatal(err)
		}
		gap, err := ch.Calibrate(4)
		if err != nil {
			return 0
		}
		return gap
	}
	var shared, perCore float64
	for i := 0; i < b.N; i++ {
		shared = run(false, int64(i+1))
		perCore = run(true, int64(i+1))
	}
	b.ReportMetric(shared, "gap_shared_vr_cycles")
	b.ReportMetric(perCore, "gap_percore_vr_cycles")
}

// BenchmarkAblationResetTime sweeps the license hysteresis: the paper's
// 650 µs reset-time is the dominant term of the transaction cycle, so
// capacity scales almost inversely with it.
func BenchmarkAblationResetTime(b *testing.B) {
	run := func(hysteresisUS float64) float64 {
		proc := ichannels.CannonLake8121U()
		proc.LicenseHysteresis = ichannels.Duration(hysteresisUS) * ichannels.Microsecond
		m, err := ichannels.NewMachine(ichannels.MachineOptions{Processor: proc, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		ch, err := ichannels.NewChannel(m, ichannels.DefaultChannelParams(ichannels.SameThread, proc))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ch.Calibrate(4); err != nil {
			b.Fatal(err)
		}
		res, err := ch.Transmit([]int{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0})
		if err != nil || res.BER > 0 {
			return 0
		}
		return res.ThroughputBPS
	}
	var at650, at325 float64
	for i := 0; i < b.N; i++ {
		at650 = run(650)
		at325 = run(325)
	}
	b.ReportMetric(at650, "bps_reset_650us")
	b.ReportMetric(at325, "bps_reset_325us")
}

// BenchmarkAblationThrottleFactor compares the paper's measured 1-of-4 IDQ
// gate against a hypothetical harsher 1-of-8 gate: receiver separability
// (and thus the channel) survives either, showing the channel rides the
// ramp *duration*, not the throttle *depth*.
func BenchmarkAblationThrottleFactor(b *testing.B) {
	run := func(factor float64, seed int64) float64 {
		proc := ichannels.CannonLake8121U()
		proc.ThrottleFactor = factor
		m, err := ichannels.NewMachine(ichannels.MachineOptions{Processor: proc, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		ch, err := ichannels.NewChannel(m, ichannels.DefaultChannelParams(ichannels.SMT, proc))
		if err != nil {
			b.Fatal(err)
		}
		gap, err := ch.Calibrate(4)
		if err != nil {
			return 0
		}
		return gap
	}
	var quarter, eighth float64
	for i := 0; i < b.N; i++ {
		quarter = run(0.25, int64(i+1))
		eighth = run(0.125, int64(i+1))
	}
	b.ReportMetric(quarter, "gap_1of4_cycles")
	b.ReportMetric(eighth, "gap_1of8_cycles")
}

// Scenario API benchmarks: the perf trajectory of the single declarative
// entry point and of batches at increasing parallelism.

// BenchmarkRunScenario measures one scenario end to end (machine build,
// calibration, 32-bit transmission) through the declarative entry point.
func BenchmarkRunScenario(b *testing.B) {
	var last *ichannels.ScenarioResult
	for i := 0; i < b.N; i++ {
		res, err := ichannels.RunScenario(context.Background(), ichannels.Scenario{
			Role: "channel", Kind: "cores", Bits: 32, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ThroughputBPS, "channel_bps")
}

// benchedChannelKinds lists every channel kind with a per-kind scenario
// benchmark. TestBenchmarkSpecsValidate enforces the bijection against
// the kind registry, so adding a channel family without extending the
// perf trajectory (or benchmarking a kind that no longer exists) breaks
// the test step, not the bench step.
var benchedChannelKinds = map[string]bool{
	"thread":   true,
	"smt":      true,
	"cores":    true,
	"retire":   true,
	"clockmod": true,
}

// benchScenarioKind measures one 16-bit transmission of the given
// channel kind end to end through the declarative entry point.
func benchScenarioKind(b *testing.B, kind string) {
	if !benchedChannelKinds[kind] {
		b.Fatalf("kind %s is not in benchedChannelKinds", kind)
	}
	var last *ichannels.ScenarioResult
	for i := 0; i < b.N; i++ {
		res, err := ichannels.RunScenario(context.Background(), ichannels.Scenario{
			Role: "channel", Kind: kind, Bits: 16, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ThroughputBPS, "channel_bps")
	b.ReportMetric(last.BER, "ber")
}

func BenchmarkScenarioKindThread(b *testing.B) { benchScenarioKind(b, "thread") }

func BenchmarkScenarioKindSMT(b *testing.B) { benchScenarioKind(b, "smt") }

func BenchmarkScenarioKindCores(b *testing.B) { benchScenarioKind(b, "cores") }

func BenchmarkScenarioKindRetire(b *testing.B) { benchScenarioKind(b, "retire") }

func BenchmarkScenarioKindClockMod(b *testing.B) { benchScenarioKind(b, "clockmod") }

// batch16Specs is the fixed heterogeneous 16-scenario batch
// (4 processors × {cross-core channel, same-thread channel, cross-core
// spy, NetSpectre baseline}) BenchmarkRunScenariosBatch16 runs and
// TestBenchmarkSpecsValidate guards.
func batch16Specs() []ichannels.Scenario {
	var specs []ichannels.Scenario
	for _, proc := range []string{"Cannon Lake", "Coffee Lake", "Haswell", "Skylake-SP"} {
		specs = append(specs,
			ichannels.Scenario{Role: "channel", Kind: "cores", Processor: proc, Bits: 16},
			ichannels.Scenario{Role: "channel", Kind: "thread", Processor: proc, Bits: 16},
			ichannels.Scenario{Role: "spy", Kind: "cores", Processor: proc, Bits: 8},
			ichannels.Scenario{Role: "baseline", Baseline: "netspectre", Processor: proc, Bits: 8},
		)
	}
	return specs
}

// BenchmarkRunScenariosBatch16 runs the fixed heterogeneous batch at
// three pool sizes. The result bytes are parallelism-invariant; only
// the wall clock moves.
func BenchmarkRunScenariosBatch16(b *testing.B) {
	specs := batch16Specs()
	for _, par := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batch, err := ichannels.RunScenarios(context.Background(), ichannels.ScenarioBatchOptions{
					Scenarios: specs, BaseSeed: int64(i + 1), Parallel: par,
				})
				if err != nil {
					b.Fatal(err)
				}
				if failed := batch.Failed(); len(failed) > 0 {
					b.Fatalf("%s: %v", failed[0].Scenario.Describe(), failed[0].Err)
				}
			}
		})
	}
}

// streamGrid yields the 32-cell grid BenchmarkStreamScenarios pulls
// through the streaming core (and TestBenchmarkSpecsValidate checks).
func streamGrid() func() (ichannels.Scenario, bool) {
	procs := []string{"Cannon Lake", "Coffee Lake", "Haswell", "Skylake-SP"}
	i := 0
	return func() (ichannels.Scenario, bool) {
		if i >= 32 {
			return ichannels.Scenario{}, false
		}
		s := ichannels.Scenario{
			Role: "channel", Kind: "cores",
			Processor: procs[i%len(procs)],
			Bits:      8 + 2*(i/len(procs)),
		}
		i++
		return s, true
	}
}

// BenchmarkStreamScenarios measures the streaming execution core — the
// path every sweep cell takes — over a 32-cell grid with a bounded
// reorder window, at two pool sizes. Run with -benchmem: the RunScenario
// hot path's preallocation work (measurement/decode slices sized from
// the schedule) shows up directly in B/op and allocs/op here.
func BenchmarkStreamScenarios(b *testing.B) {
	grid := streamGrid
	for _, par := range []int{1, 8} {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats, err := ichannels.StreamScenarios(context.Background(), ichannels.ScenarioStreamOptions{
					Next: grid(), BaseSeed: int64(i + 1), Parallel: par, Window: 8,
				})
				if err != nil {
					b.Fatal(err)
				}
				if stats.Emitted != 32 || stats.Failed != 0 {
					b.Fatalf("stream stats %+v", stats)
				}
			}
		})
	}
}

// BenchmarkSweepTable6 runs the checked-in Table-6-style grid (88 cells
// post-filter) end to end: lazy expansion, streaming execution, grouped
// aggregation.
func BenchmarkSweepTable6(b *testing.B) {
	data, err := os.ReadFile("examples/sweeps/specs/table6_processor_mitigation.json")
	if err != nil {
		b.Fatal(err)
	}
	sw, err := ichannels.ParseSweepSpec(data)
	if err != nil {
		b.Fatal(err)
	}
	var res *ichannels.SweepResult
	for i := 0; i < b.N; i++ {
		res, err = ichannels.RunSweep(context.Background(), sw, ichannels.SweepOptions{
			BaseSeed: int64(i + 1), Parallel: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed > 0 {
			b.Fatalf("%d cells failed", res.Failed)
		}
	}
	b.ReportMetric(float64(len(res.Cells)), "cells")
}

// BenchmarkSweepRefined runs the checked-in adaptive Fig. 14-style
// noise sweep end to end: coarse pass, aggregator-driven scoring,
// midpoint refinement. cells vs dense_cells is the algorithmic win the
// refinement exists for (the knee found with ≤ half the dense grid);
// ns/op and allocs/op track the per-cell hot path it shares with every
// other sweep.
func BenchmarkSweepRefined(b *testing.B) {
	data, err := os.ReadFile("examples/sweeps/specs/fig14_noise_refined.json")
	if err != nil {
		b.Fatal(err)
	}
	sw, err := ichannels.ParseSweepSpec(data)
	if err != nil {
		b.Fatal(err)
	}
	var res *ichannels.SweepResult
	for i := 0; i < b.N; i++ {
		res, err = ichannels.RefineSweep(context.Background(), sw, ichannels.SweepOptions{
			BaseSeed: int64(i + 1), Parallel: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed > 0 {
			b.Fatalf("%d cells failed", res.Failed)
		}
	}
	b.ReportMetric(float64(res.Refinement.CellsComputed), "cells")
	b.ReportMetric(float64(res.Refinement.DenseCells), "dense_cells")
	b.ReportMetric(float64(len(res.Refinement.Passes)), "passes")
}

// TestBenchmarkSpecsValidate guards the bench setup: every benchmarked
// experiment must still be registered (and every registered experiment
// benchmarked, so the perf trajectory has no holes), and every
// scenario or sweep spec a benchmark constructs must validate — a
// bench broken by spec evolution fails here, in the test step, before
// the bench step ever runs.
func TestBenchmarkSpecsValidate(t *testing.T) {
	registered := map[string]bool{}
	for _, e := range ichannels.Experiments() {
		registered[e.ID] = true
	}
	for id := range benchedExperiments {
		if !registered[id] {
			t.Errorf("benchmarked experiment %q is not in the registry", id)
			continue
		}
		if err := ichannels.ScenarioFromExperiment(id).Validate(); err != nil {
			t.Errorf("experiment %q scenario: %v", id, err)
		}
	}
	for id := range registered {
		if _, ok := benchedExperiments[id]; !ok {
			t.Errorf("registered experiment %q has no benchmark (add it to benchedExperiments)", id)
		}
	}

	// Channel-kind bijection: every registered kind is benchmarked and
	// every benchmarked kind is registered, with a spec that validates.
	for _, k := range ichannels.ChannelKindNames() {
		if !benchedChannelKinds[k] {
			t.Errorf("registered channel kind %q has no benchmark (add it to benchedChannelKinds)", k)
		}
	}
	for k := range benchedChannelKinds {
		if ichannels.ChannelKindDescribe(k) == "" {
			t.Errorf("benchmarked channel kind %q is not in the registry", k)
			continue
		}
		if err := (ichannels.Scenario{Role: "channel", Kind: k, Bits: 16}).Validate(); err != nil {
			t.Errorf("kind %q bench spec: %v", k, err)
		}
	}

	for i, s := range batch16Specs() {
		if err := s.Validate(); err != nil {
			t.Errorf("batch16 spec %d (%s): %v", i, s.Describe(), err)
		}
	}
	next := streamGrid()
	for i := 0; ; i++ {
		s, ok := next()
		if !ok {
			if i != 32 {
				t.Errorf("stream grid yields %d cells, benchmark asserts 32", i)
			}
			break
		}
		if err := s.Validate(); err != nil {
			t.Errorf("stream grid cell %d (%s): %v", i, s.Describe(), err)
		}
	}
	if err := (ichannels.Scenario{Role: "channel", Kind: "cores", Bits: 32}).Validate(); err != nil {
		t.Errorf("BenchmarkRunScenario spec: %v", err)
	}

	data, err := os.ReadFile("examples/sweeps/specs/table6_processor_mitigation.json")
	if err != nil {
		t.Fatalf("BenchmarkSweepTable6 spec file: %v", err)
	}
	sw, err := ichannels.ParseSweepSpec(data)
	if err != nil {
		t.Fatalf("BenchmarkSweepTable6 spec: %v", err)
	}
	if n, err := sw.CountCells(); err != nil || n != 88 {
		t.Errorf("table6 sweep expands to %d cells (%v), benchmark asserts 88", n, err)
	}

	rdata, err := os.ReadFile("examples/sweeps/specs/fig14_noise_refined.json")
	if err != nil {
		t.Fatalf("BenchmarkSweepRefined spec file: %v", err)
	}
	rsw, err := ichannels.ParseSweepSpec(rdata)
	if err != nil {
		t.Fatalf("BenchmarkSweepRefined spec: %v", err)
	}
	if rsw.Refine == nil {
		t.Error("BenchmarkSweepRefined spec lost its refine block")
	}
	if n, err := rsw.CountCells(); err != nil || n != 40 {
		t.Errorf("refined sweep's dense grid is %d cells (%v), benchmark assumes 40", n, err)
	}
}

// BenchmarkSimulatorThroughput measures raw simulator performance:
// simulated microseconds per wall second while the covert channel runs.
func BenchmarkSimulatorThroughput(b *testing.B) {
	proc := ichannels.CannonLake8121U()
	m, err := ichannels.NewMachine(ichannels.MachineOptions{Processor: proc, Seed: 1, Noise: ichannels.NoiseWithRates(1000, 200)})
	if err != nil {
		b.Fatal(err)
	}
	ch, err := ichannels.NewChannel(m, ichannels.DefaultChannelParams(ichannels.CrossCore, proc))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ch.Calibrate(4); err != nil {
		b.Fatal(err)
	}
	bits := []int{1, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Transmit(bits); err != nil {
			b.Fatal(err)
		}
	}
}
