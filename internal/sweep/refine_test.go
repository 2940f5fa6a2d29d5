package sweep

import (
	"context"
	"encoding/json"
	"testing"

	"ichannels/internal/engine"
	"ichannels/internal/scenario"
	"ichannels/internal/store"
)

// kneeRun fabricates a BER sigmoid over the bits axis: flat zero below
// 40, a linear knee from 40 to 48, saturated 0.5 above — cheap cells
// with a known transition zone the controller must find.
func kneeRun(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
	ber := 0.0
	switch {
	case s.Bits >= 48:
		ber = 0.5
	case s.Bits > 40:
		ber = 0.5 * float64(s.Bits-40) / 8
	}
	return &scenario.Result{
		Role: s.Role, Hash: s.Hash(), Seed: seed, Bits: s.Bits,
		BER: ber, ThroughputBPS: float64(10 * s.Bits), ElapsedSimUS: 1,
	}, nil
}

// kneeSweep is a 32-point bits axis (2..64) with a refine block: stride
// 8, threshold 0.05, so only the 40–48 transition should densify.
func kneeSweep() scenario.Sweep {
	bits := make([]int, 32)
	for i := range bits {
		bits[i] = 2 * (i + 1)
	}
	return scenario.Sweep{
		Name:    "knee",
		Base:    scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores},
		Axes:    scenario.SweepAxes{Bits: bits},
		GroupBy: []string{scenario.AxisBits},
		Refine: &scenario.Refine{
			Metric: scenario.RefineMetricBER, Stride: map[string]int{scenario.AxisBits: 8},
			Threshold: 0.05,
		},
	}
}

// TestRefinedComputesOnlyMovingRegions: the controller finds the knee
// (every position whose local metric step exceeds the threshold is
// computed) while the flat regions stay at coarse resolution, well
// under half the dense grid.
func TestRefinedComputesOnlyMovingRegions(t *testing.T) {
	res, err := Run(context.Background(), kneeSweep(), Options{BaseSeed: 1, Parallel: 4, Runner: engine.ScenarioRunFunc(kneeRun)})
	if err != nil {
		t.Fatal(err)
	}
	ref := res.Refinement
	if ref == nil {
		t.Fatal("refined run carries no refinement stats")
	}
	if ref.DenseCells != 32 {
		t.Fatalf("dense cells %d, want 32", ref.DenseCells)
	}
	if ref.CellsComputed != len(res.Cells) {
		t.Fatalf("stats say %d cells, result has %d", ref.CellsComputed, len(res.Cells))
	}
	if ref.CellsComputed*2 > ref.DenseCells {
		t.Fatalf("refined run computed %d of %d cells — more than half the dense grid", ref.CellsComputed, ref.DenseCells)
	}
	computed := map[string]bool{}
	for _, c := range res.Cells {
		computed[c.Axes[scenario.AxisBits]] = true
	}
	// The knee (bits 40–48 exclusive of the flat ends' interiors) must
	// be locally dense: every axis value whose fabricated BER differs
	// from a neighbour's by ≥ threshold is computed.
	for _, want := range []string{"40", "42", "44", "46", "48"} {
		if !computed[want] {
			t.Errorf("knee cell bits=%s was not computed (have %v)", want, computed)
		}
	}
	// Deep flat zone stays coarse: stride-8 skips bits=6 (position 2).
	if computed["6"] {
		t.Errorf("flat-zone cell bits=6 was computed; flat regions should stay coarse")
	}
	if res.Aggregate.Cells != ref.CellsComputed {
		t.Errorf("aggregate covers %d cells, want %d", res.Aggregate.Cells, ref.CellsComputed)
	}
}

// TestRefinedDeterministicAcrossParallelism: the full refined Result —
// per-pass cell order, summaries, aggregate, refinement stats — is
// byte-identical at any pool size.
func TestRefinedDeterministicAcrossParallelism(t *testing.T) {
	marshal := func(parallel int) []byte {
		res, err := Run(context.Background(), kneeSweep(), Options{BaseSeed: 7, Parallel: parallel, Runner: engine.ScenarioRunFunc(kneeRun)})
		if err != nil {
			t.Fatal(err)
		}
		res.Parallel = 0 // wall-clock envelope field
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := marshal(1)
	for _, p := range []int{4, 8} {
		if got := marshal(p); string(got) != string(serial) {
			t.Fatalf("parallel-%d refined result differs from serial:\n%s\nvs\n%s", p, got, serial)
		}
	}
}

// TestRefinedBudgetTruncation: a per-pass budget defers cells without
// breaking determinism; every pass respects the cap and the truncation
// is recorded.
func TestRefinedBudgetTruncation(t *testing.T) {
	sw := kneeSweep()
	sw.Refine.MaxCellsPerPass = 3
	sw.Refine.MaxPasses = scenario.MaxRefinePasses
	run := func(parallel int) *Result {
		res, err := Run(context.Background(), sw, Options{BaseSeed: 1, Parallel: parallel, Runner: engine.ScenarioRunFunc(kneeRun)})
		if err != nil {
			t.Fatal(err)
		}
		res.Parallel = 0 // wall-clock envelope field
		return res
	}
	res := run(2)
	truncated := 0
	for _, p := range res.Refinement.Passes {
		if p.Cells > 3 {
			t.Errorf("pass %d ran %d cells, budget is 3", p.Pass, p.Cells)
		}
		truncated += p.Truncated
	}
	if truncated == 0 {
		t.Fatalf("expected the 6-cell coarse skeleton to exceed the budget of 3; passes: %+v", res.Refinement.Passes)
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(run(8))
	if string(a) != string(b) {
		t.Fatal("budgeted refined run is not parallelism-invariant")
	}
}

// TestRefinedBudgetNeverStrandsGroupCells: when the per-pass budget
// cuts a pass mid-group, the deferred cells must run in a later pass —
// a selected group may never end up permanently partial (its aggregate
// row would silently mix sample-set sizes).
func TestRefinedBudgetNeverStrandsGroupCells(t *testing.T) {
	bits := make([]int, 16)
	for i := range bits {
		bits[i] = 2 * (i + 1)
	}
	sw := scenario.Sweep{
		Name: "strand",
		Base: scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores},
		Axes: scenario.SweepAxes{
			Bits:      bits,
			Processor: []string{"Cannon Lake", "Haswell", "Coffee Lake"},
		},
		// processor is NOT grouped: each bits group holds 3 cells, so a
		// budget of 4 is guaranteed to split a group on every pass.
		GroupBy: []string{scenario.AxisBits},
		Refine: &scenario.Refine{
			Stride: map[string]int{scenario.AxisBits: 4}, Threshold: 0.05,
			MaxCellsPerPass: 4, MaxPasses: scenario.MaxRefinePasses,
		},
	}
	res, err := Run(context.Background(), sw, Options{BaseSeed: 1, Parallel: 4, Runner: engine.ScenarioRunFunc(kneeRun)})
	if err != nil {
		t.Fatal(err)
	}
	perGroup := map[string]int{}
	for _, c := range res.Cells {
		perGroup[c.Axes[scenario.AxisBits]]++
	}
	for v, n := range perGroup {
		if n != 3 {
			t.Errorf("group bits=%s computed %d of its 3 cells — budget truncation stranded the rest", v, n)
		}
	}
	truncated := 0
	for _, p := range res.Refinement.Passes {
		if p.Cells > 4 {
			t.Errorf("pass %d ran %d cells, budget is 4", p.Pass, p.Cells)
		}
		truncated += p.Truncated
	}
	if truncated == 0 {
		t.Fatalf("budget never split a pass; the test exercised nothing (passes: %+v)", res.Refinement.Passes)
	}
}

// TestRefinedKilledAndResumed: a refined sweep killed mid-run resumes
// from its store with a byte-identical final aggregate and refinement
// record, recomputing only what the first run never persisted.
func TestRefinedKilledAndResumed(t *testing.T) {
	st, err := store.OpenPacked(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sw := kneeSweep()

	// Reference: one uninterrupted run, no store.
	want, err := Run(context.Background(), sw, Options{BaseSeed: 5, Parallel: 1, Runner: engine.ScenarioRunFunc(kneeRun)})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want.Aggregate)
	wantRef, _ := json.Marshal(want.Refinement)

	// Kill the first run after 4 cells (mid-coarse-pass).
	kill := errKill{}
	n := 0
	_, err = Run(context.Background(), sw, Options{
		BaseSeed: 5, Parallel: 1, Runner: engine.ScenarioRunFunc(kneeRun), Store: st,
		OnCell: func(CellOutcome) error {
			n++
			if n >= 4 {
				return kill
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("killed run reported success")
	}

	// Resume: the surviving cells come back from the store.
	res, err := Run(context.Background(), sw, Options{BaseSeed: 5, Parallel: 4, Runner: engine.ScenarioRunFunc(kneeRun), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached == 0 {
		t.Fatal("resumed run served nothing from the store")
	}
	gotJSON, _ := json.Marshal(res.Aggregate)
	gotRef, _ := json.Marshal(res.Refinement)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("resumed aggregate differs:\n%s\nwant:\n%s", gotJSON, wantJSON)
	}
	if string(gotRef) != string(wantRef) {
		t.Fatalf("resumed refinement record differs:\n%s\nwant:\n%s", gotRef, wantRef)
	}
}

type errKill struct{}

func (errKill) Error() string { return "killed" }

// TestRefinedPassMarkers: OnPass fires once per pass, before that
// pass's first cell, with headers matching the recorded stats.
func TestRefinedPassMarkers(t *testing.T) {
	var markers []PassStats
	var cellPasses []int
	res, err := Run(context.Background(), kneeSweep(), Options{
		BaseSeed: 1, Parallel: 4, Runner: engine.ScenarioRunFunc(kneeRun),
		OnPass: func(p PassStats) error {
			markers = append(markers, p)
			return nil
		},
		OnCell: func(o CellOutcome) error {
			cellPasses = append(cellPasses, o.Pass)
			if o.Pass != markers[len(markers)-1].Pass {
				t.Errorf("cell pass %d arrived under marker %d", o.Pass, markers[len(markers)-1].Pass)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(markers) != len(res.Refinement.Passes) {
		t.Fatalf("%d markers for %d passes", len(markers), len(res.Refinement.Passes))
	}
	for i, m := range markers {
		if m != res.Refinement.Passes[i] {
			t.Errorf("marker %d = %+v, recorded %+v", i, m, res.Refinement.Passes[i])
		}
	}
	counts := map[int]int{}
	for _, p := range cellPasses {
		counts[p]++
	}
	for _, m := range markers {
		if counts[m.Pass] != m.Cells {
			t.Errorf("pass %d streamed %d cells, marker says %d", m.Pass, counts[m.Pass], m.Cells)
		}
	}
}
