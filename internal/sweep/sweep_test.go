package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ichannels/internal/engine"
	"ichannels/internal/scenario"
)

// fakeRun is a cheap deterministic executor: BER and throughput are
// pure functions of the spec and seed, so aggregates are checkable.
func fakeRun(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
	ber := 0.0
	if s.Mitigation == scenario.MitigationSecureMode {
		ber = 0.5
	}
	return &scenario.Result{
		Role: s.Role, Hash: s.Hash(), Seed: seed, Bits: s.Bits,
		BER: ber, ThroughputBPS: float64(100 * s.Bits), ElapsedSimUS: float64(s.Bits),
	}, nil
}

// testSweep is a 2×2×2 grid over processor × mitigation × bits.
func testSweep() scenario.Sweep {
	return scenario.Sweep{
		Name: "unit",
		Base: scenario.Scenario{Role: scenario.RoleMitigation, Kind: scenario.KindCores},
		Axes: scenario.SweepAxes{
			Processor:  []string{"Cannon Lake", "Haswell"},
			Mitigation: []string{scenario.MitigationNone, scenario.MitigationSecureMode},
			Bits:       []int{8, 16},
		},
		GroupBy: []string{scenario.AxisMitigation},
	}
}

// TestRunAggregatesByAxisSubset: grouping by mitigation collapses
// processor and bits; metrics come out of the stats toolkit.
func TestRunAggregatesByAxisSubset(t *testing.T) {
	res, err := Run(context.Background(), testSweep(), Options{BaseSeed: 3, Parallel: 4, Runner: engine.ScenarioRunFunc(fakeRun)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 || res.Failed != 0 {
		t.Fatalf("ran %d cells (%d failed), want 8/0", len(res.Cells), res.Failed)
	}
	agg := res.Aggregate
	if agg.Cells != 8 || agg.Errors != 0 {
		t.Fatalf("aggregate counts %d/%d, want 8/0", agg.Cells, agg.Errors)
	}
	if len(agg.Groups) != 2 {
		t.Fatalf("grouped into %d groups, want 2 (mitigations)", len(agg.Groups))
	}
	// Groups sort by key value: "none" < "secure-mode".
	none, secure := agg.Groups[0], agg.Groups[1]
	if none.Key[scenario.AxisMitigation] != scenario.MitigationNone ||
		secure.Key[scenario.AxisMitigation] != scenario.MitigationSecureMode {
		t.Fatalf("group keys %v / %v", none.Key, secure.Key)
	}
	if none.Cells != 4 || secure.Cells != 4 {
		t.Errorf("group sizes %d/%d, want 4/4", none.Cells, secure.Cells)
	}
	if none.BER.Mean != 0 || secure.BER.Mean != 0.5 || secure.BER.Min != 0.5 || secure.BER.P95 != 0.5 {
		t.Errorf("BER reduction wrong: none=%+v secure=%+v", none.BER, secure.BER)
	}
	// bits ∈ {8,16} ⇒ bps ∈ {800,1600}: mean 1200, min 800, max 1600.
	if none.ThroughputBPS.Mean != 1200 || none.ThroughputBPS.Min != 800 || none.ThroughputBPS.Max != 1600 {
		t.Errorf("throughput reduction wrong: %+v", none.ThroughputBPS)
	}
}

// TestRunDeterministicAcrossParallelism: the whole Result JSON —
// summaries and aggregate — is byte-identical at any pool size, and
// cells stream in expansion order.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	render := func(parallel int) string {
		var order []int
		res, err := Run(context.Background(), testSweep(), Options{
			BaseSeed: 9, Parallel: parallel, Window: 2, Runner: engine.ScenarioRunFunc(fakeRun),
			OnCell: func(o CellOutcome) error { order = append(order, o.Cell.Index); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range order {
			if i != idx {
				t.Fatalf("parallel=%d: cell %d streamed at position %d", parallel, idx, i)
			}
		}
		res.Parallel = 0 // wall-clock envelope field
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	if parallel := render(8); parallel != serial {
		t.Error("sweep result JSON differs between serial and parallel")
	}
}

// TestRunCellFailuresCounted: a failing cell lands in the summaries and
// the aggregate's error counts, and contributes no metric samples.
func TestRunCellFailuresCounted(t *testing.T) {
	res, err := Run(context.Background(), testSweep(), Options{
		BaseSeed: 1, Parallel: 2,
		Runner: engine.ScenarioRunFunc(func(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
			if s.Processor == "Haswell" {
				return nil, fmt.Errorf("synthetic")
			}
			return fakeRun(ctx, s, "", seed)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 4 {
		t.Fatalf("failed = %d, want 4 (the Haswell half)", res.Failed)
	}
	agg := res.Aggregate
	if agg.Errors != 4 {
		t.Errorf("aggregate errors = %d, want 4", agg.Errors)
	}
	for _, g := range agg.Groups {
		if g.Cells != 4 || g.Errors != 2 {
			t.Errorf("group %v: %d cells / %d errors, want 4/2", g.Key, g.Cells, g.Errors)
		}
	}
	errored := 0
	for _, c := range res.Cells {
		if c.Error != "" {
			errored++
			if c.BER != 0 || c.ThroughputBPS != 0 {
				t.Errorf("failed cell %d carries metrics", c.Index)
			}
		}
	}
	if errored != 4 {
		t.Errorf("%d summaries carry errors, want 4", errored)
	}
}

// TestRunStreamsBoundedQueue: the pending-cell FIFO tracks the engine
// window, so the sweep holds no envelope beyond the hook call. (The
// strict memory bound itself is asserted in engine.TestStreamBoundedMemory;
// here we check the sweep keeps only compact summaries: no result
// envelope reachable from Result.)
func TestRunStreamsBoundedQueue(t *testing.T) {
	res, err := Run(context.Background(), testSweep(), Options{BaseSeed: 2, Window: 1, Runner: engine.ScenarioRunFunc(fakeRun)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "sent_bits") {
		t.Error("sweep result retains full envelopes")
	}
}

// TestAggregateLineFraming: the aggregate's NDJSON framing round-trips
// and is stable for a fixed sweep/seed — the byte-level contract the
// HTTP layer shares.
func TestAggregateLineFraming(t *testing.T) {
	run := func() string {
		res, err := Run(context.Background(), testSweep(), Options{BaseSeed: 5, Parallel: 3, Runner: engine.ScenarioRunFunc(fakeRun)})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteAggregateLine(&buf, res.Aggregate); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Error("aggregate line not reproducible")
	}
	var line struct {
		Aggregate *Table `json:"aggregate"`
	}
	if err := json.Unmarshal([]byte(a), &line); err != nil || line.Aggregate == nil {
		t.Fatalf("aggregate line does not round-trip: %v", err)
	}
	if line.Aggregate.BaseSeed != 5 || line.Aggregate.Cells != 8 {
		t.Errorf("aggregate line payload wrong: %+v", line.Aggregate)
	}
}

// TestOnCellErrorStopsSweep: the hook's error aborts the run.
func TestOnCellErrorStopsSweep(t *testing.T) {
	boom := fmt.Errorf("sink closed")
	_, err := Run(context.Background(), testSweep(), Options{
		Runner: engine.ScenarioRunFunc(fakeRun),
		OnCell: func(CellOutcome) error { return boom },
	})
	if err != boom {
		t.Errorf("err = %v, want the hook error", err)
	}
}

// TestRunRealScenarios: a tiny real grid (no injected runner) flows end
// to end and group keys match the envelope values.
func TestRunRealScenarios(t *testing.T) {
	sw := scenario.Sweep{
		Base: scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8},
		Axes: scenario.SweepAxes{Processor: []string{"Cannon Lake", "Core i7-4770K"}},
	}
	res, err := Run(context.Background(), sw, Options{BaseSeed: 1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || len(res.Cells) != 2 {
		t.Fatalf("real grid: %d cells, %d failed", len(res.Cells), res.Failed)
	}
	if len(res.Aggregate.Groups) != 2 {
		t.Fatalf("want one group per processor, got %d", len(res.Aggregate.Groups))
	}
	// Marketing name normalized to code name in the group key.
	if res.Aggregate.Groups[1].Key[scenario.AxisProcessor] != "Haswell" {
		t.Errorf("group key %v not normalized", res.Aggregate.Groups[1].Key)
	}
	// Seeds derive from the engine's scenario derivation.
	cell0 := res.Cells[0]
	spec := scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8, Processor: "Cannon Lake"}
	if want := engine.DeriveScenarioSeed(1, spec); cell0.Seed != want {
		t.Errorf("cell seed %d, want derived %d", cell0.Seed, want)
	}
}

// TestTableWriteText: the text table lists one aligned row per group.
func TestTableWriteText(t *testing.T) {
	res, err := Run(context.Background(), testSweep(), Options{BaseSeed: 1, Runner: engine.ScenarioRunFunc(fakeRun)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"mitigation", "secure-mode", "aggregate (group by mitigation)", "BER mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}
