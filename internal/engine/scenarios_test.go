package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ichannels/internal/exp"
	"ichannels/internal/scenario"
)

// testScenarios is a small heterogeneous batch covering several roles.
func testScenarios() []scenario.Scenario {
	return []scenario.Scenario{
		{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8},
		{Role: scenario.RoleChannel, Kind: scenario.KindThread, Bits: 8},
		{Role: scenario.RoleChannel, Kind: scenario.KindSMT, Bits: 8},
		{Role: scenario.RoleSpy, Bits: 8},
		{Role: scenario.RoleBaseline, Baseline: scenario.BaselineNetSpectre, Bits: 4},
		{Role: scenario.RoleExperiment, Experiment: "fig13"},
	}
}

// stripTiming zeroes the wall-clock fields of a batch JSON encoding so
// the deterministic payload can be compared byte-for-byte.
func stripTiming(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("batch JSON: %v", err)
	}
	delete(m, "elapsed_us")
	delete(m, "parallel") // the effective pool size is part of the envelope, not the payload
	results, ok := m["results"].([]any)
	if !ok {
		t.Fatal("batch JSON has no results array")
	}
	for _, r := range results {
		delete(r.(map[string]any), "elapsed_us")
	}
	out, _ := json.Marshal(m)
	return string(out)
}

// TestScenarioSerialMatchesParallel: for a fixed base seed the result
// content is byte-identical across parallelism degrees — the same
// contract the experiment batch has.
func TestScenarioSerialMatchesParallel(t *testing.T) {
	var blobs []string
	for _, par := range []int{1, 4} {
		b, err := RunScenarios(context.Background(), ScenarioOptions{
			Scenarios: testScenarios(), BaseSeed: 11, Parallel: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Failed()) != 0 {
			t.Fatalf("parallel=%d: %d scenarios failed (first: %v)", par, len(b.Failed()), b.Failed()[0].Err)
		}
		var buf bytes.Buffer
		if err := b.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, stripTiming(t, buf.Bytes()))

		var text bytes.Buffer
		if err := b.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, text.String())
	}
	if blobs[0] != blobs[2] {
		t.Error("serial and parallel batch JSON differ")
	}
	if blobs[1] != blobs[3] {
		t.Error("serial and parallel batch text differ")
	}
}

// TestScenarioSeedDerivation: derived seeds are order-independent and
// an explicit spec seed wins.
func TestScenarioSeedDerivation(t *testing.T) {
	a := scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8}
	c := scenario.Scenario{Role: scenario.RoleSpy, Bits: 8}
	pinned := scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindThread, Bits: 8, Seed: 77}

	fake := func(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
		return &scenario.Result{Role: s.Role, Hash: s.Hash(), Seed: seed}, nil
	}
	fwd, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{a, c, pinned}, BaseSeed: 5, Runner: ScenarioRunFunc(fake),
	})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{pinned, c, a}, BaseSeed: 5, Runner: ScenarioRunFunc(fake),
	})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Results[0].Seed != rev.Results[2].Seed || fwd.Results[1].Seed != rev.Results[1].Seed {
		t.Error("derived seeds depend on batch order")
	}
	if fwd.Results[0].Seed == fwd.Results[1].Seed {
		t.Error("distinct scenarios derived the same seed")
	}
	if fwd.Results[2].Seed != 77 {
		t.Errorf("explicit spec seed overridden: got %d", fwd.Results[2].Seed)
	}
	if fwd.Results[0].Seed != DeriveScenarioSeed(5, a) {
		t.Error("batch seed does not match DeriveScenarioSeed")
	}
	other, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{a}, BaseSeed: 6, Runner: ScenarioRunFunc(fake),
	})
	if err != nil {
		t.Fatal(err)
	}
	if other.Results[0].Seed == fwd.Results[0].Seed {
		t.Error("base seed does not influence derived seeds")
	}
}

// TestScenarioBatchValidation: an invalid spec fails the whole batch up
// front, naming the index.
func TestScenarioBatchValidation(t *testing.T) {
	_, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{
			{Role: scenario.RoleChannel, Bits: 8},
			{Role: "warp"},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "scenarios[1]") {
		t.Errorf("invalid spec not rejected with its index: %v", err)
	}
}

// TestScenarioPanicIsolationAndOnResult: a panicking runner becomes a
// per-outcome error, and OnResult fires exactly once per scenario, in
// order, with the outcome the batch then holds.
func TestScenarioPanicIsolationAndOnResult(t *testing.T) {
	var seen []ScenarioOutcome
	specs := []scenario.Scenario{
		{Role: scenario.RoleChannel, Bits: 8},
		{Role: scenario.RoleChannel, Bits: 10},
		{Role: scenario.RoleChannel, Bits: 12},
	}
	var b *ScenarioBatch
	b, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: specs,
		Parallel:  2,
		Runner: ScenarioRunFunc(func(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
			if s.Bits == 10 {
				panic("boom")
			}
			return &scenario.Result{Role: s.Role, Seed: seed}, nil
		}),
		OnResult: func(i int, o ScenarioOutcome) {
			if i != len(seen) {
				t.Errorf("OnResult(%d) out of order, want %d", i, len(seen))
			}
			seen = append(seen, o)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("OnResult fired %d times, want 3", len(seen))
	}
	for i, o := range seen {
		if r := b.Results[i]; o.Hash != r.Hash || o.Seed != r.Seed || o.Result != r.Result || o.Err != r.Err {
			t.Errorf("OnResult(%d) outcome differs from the batch slot", i)
		}
	}
	if seen[0].Result == nil || seen[1].Err == nil {
		t.Error("OnResult outcome is not populated")
	}
	failed := b.Failed()
	if len(failed) != 1 || !strings.Contains(failed[0].Err.Error(), "panicked") {
		t.Errorf("panic not isolated: %+v", failed)
	}
	if b.Results[0].Err != nil || b.Results[2].Err != nil {
		t.Error("healthy scenarios affected by a panicking sibling")
	}
}

// TestScenarioCancellation: a cancelled context marks unstarted
// scenarios with the context error.
func TestScenarioCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := RunScenarios(ctx, ScenarioOptions{
		Scenarios: []scenario.Scenario{{Role: scenario.RoleChannel, Bits: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Failed()) != 1 {
		t.Error("cancelled context did not mark the scenario failed")
	}
}

// TestScenarioNDJSON: one line per outcome, each valid JSON.
func TestScenarioNDJSON(t *testing.T) {
	b, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: testScenarios()[:2], BaseSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON produced %d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Errorf("NDJSON line not valid JSON: %v: %s", err, ln)
		}
		if _, ok := m["result"]; !ok {
			t.Errorf("NDJSON line missing result: %s", ln)
		}
	}
}

// TestDerivedSeedsArePinnable: derived seeds are always positive so a
// reported seed can be written back into a spec ("seed": N) — which the
// validator requires to be non-negative — and replayed exactly.
func TestDerivedSeedsArePinnable(t *testing.T) {
	specs := testScenarios()
	for base := int64(0); base < 64; base++ {
		for _, s := range specs {
			d := DeriveScenarioSeed(base, s)
			if d <= 0 {
				t.Fatalf("base %d, %s: derived seed %d is not pinnable", base, s.Hash(), d)
			}
			pinned := s
			pinned.Seed = d
			if err := pinned.Validate(); err != nil {
				t.Fatalf("pinning derived seed %d rejected: %v", d, err)
			}
		}
	}
}

// channelSpecs returns n distinct valid channel specs (bits 8, 10, …)
// for tests that inject a fake executor.
func channelSpecs(n int) []scenario.Scenario {
	out := make([]scenario.Scenario, n)
	for i := range out {
		out[i] = scenario.Scenario{Role: scenario.RoleChannel, Bits: 8 + 2*i}
	}
	return out
}

// TestParallelMatchesSerial is the engine's core guarantee over the
// paper's registry: for a fixed base seed, a parallel batch over every
// registered experiment produces results byte-identical to the serial
// batch, in both renderings.
func TestParallelMatchesSerial(t *testing.T) {
	run := func(par int) *ScenarioBatch {
		b, err := RunScenarios(context.Background(), ScenarioOptions{
			Scenarios: scenario.AllExperiments(), BaseSeed: 1, Parallel: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial, par := run(1), run(8)
	if len(serial.Results) != len(exp.IDs()) || len(par.Results) != len(serial.Results) {
		t.Fatalf("result counts: serial %d, parallel %d, registry %d",
			len(serial.Results), len(par.Results), len(exp.IDs()))
	}
	for i := range serial.Results {
		s, p := serial.Results[i], par.Results[i]
		if s.Scenario.Experiment != p.Scenario.Experiment || s.Seed != p.Seed {
			t.Fatalf("result %d ordering diverged: %s/%d vs %s/%d",
				i, s.Scenario.Experiment, s.Seed, p.Scenario.Experiment, p.Seed)
		}
		if s.Err != nil || p.Err != nil {
			t.Fatalf("%s failed: serial %v, parallel %v", s.Scenario.Experiment, s.Err, p.Err)
		}
		sj, _ := json.Marshal(s.Result)
		pj, _ := json.Marshal(p.Result)
		if !bytes.Equal(sj, pj) {
			t.Errorf("%s: JSON results differ between serial and parallel", s.Scenario.Experiment)
		}
	}
	// The full deterministic text stream must match byte for byte too.
	var st, pt bytes.Buffer
	if err := serial.WriteText(&st); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteText(&pt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Bytes(), pt.Bytes()) {
		t.Error("WriteText streams differ between serial and parallel")
	}
}

// TestParallelIsFaster checks the pool actually overlaps work: four
// 60 ms jobs on four workers must beat the serial run and must have
// run concurrently.
func TestParallelIsFaster(t *testing.T) {
	var cur, peak int64
	slow := func(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
		n := atomic.AddInt64(&cur, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if n <= old || atomic.CompareAndSwapInt64(&peak, old, n) {
				break
			}
		}
		time.Sleep(60 * time.Millisecond)
		atomic.AddInt64(&cur, -1)
		return &scenario.Result{Role: s.Role, Seed: seed}, nil
	}
	run := func(par int) *ScenarioBatch {
		b, err := RunScenarios(context.Background(), ScenarioOptions{Scenarios: channelSpecs(4), Parallel: par, Runner: ScenarioRunFunc(slow)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	if peak != 1 {
		t.Fatalf("serial run overlapped: peak concurrency %d", peak)
	}
	peak = 0
	par := run(4)
	if peak < 2 {
		t.Errorf("parallel run never overlapped: peak concurrency %d", peak)
	}
	if par.Elapsed >= serial.Elapsed {
		t.Errorf("parallel batch (%v) not faster than serial (%v)", par.Elapsed, serial.Elapsed)
	}
}

// TestCancellation: cancelling the context mid-batch abandons queued
// scenarios with the context's error while the running one finishes.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	run := func(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
		once.Do(cancel) // first job cancels the rest
		return &scenario.Result{Role: s.Role, Seed: seed}, nil
	}
	specs := channelSpecs(6)
	b, err := RunScenarios(ctx, ScenarioOptions{Scenarios: specs, Parallel: 1, Runner: ScenarioRunFunc(run)})
	if err != nil {
		t.Fatal(err)
	}
	if b.Results[0].Err != nil {
		t.Fatalf("first job must complete, got %v", b.Results[0].Err)
	}
	cancelled := 0
	for _, r := range b.Results[1:] {
		if r.Err == context.Canceled {
			cancelled++
		}
	}
	if cancelled != len(specs)-1 {
		t.Errorf("%d of %d queued jobs cancelled", cancelled, len(specs)-1)
	}
	if len(b.Failed()) != cancelled {
		t.Errorf("Failed() = %d, want %d", len(b.Failed()), cancelled)
	}
	// A cancelled slot keeps the identity the batch computed up front.
	full, err := RunScenarios(context.Background(), ScenarioOptions{Scenarios: specs, Parallel: 1, Runner: ScenarioRunFunc(run)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range b.Results {
		w := full.Results[i]
		if r.Hash != w.Hash || r.Seed != w.Seed || !reflect.DeepEqual(r.Scenario, w.Scenario) {
			t.Errorf("slot %d: (%s, %d) differs from the uncancelled run's (%s, %d)", i, r.Hash, r.Seed, w.Hash, w.Seed)
		}
	}
}

// TestUnknownIDRejectedUpfront: an experiment-role spec naming an
// unregistered experiment fails the whole batch before anything runs.
func TestUnknownIDRejectedUpfront(t *testing.T) {
	var calls int64
	_, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{scenario.FromExperiment("fig13"), scenario.FromExperiment("nope")},
		Runner: ScenarioRunFunc(func(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
			atomic.AddInt64(&calls, 1)
			return &scenario.Result{Role: s.Role, Seed: seed}, nil
		}),
	})
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "nope"`) {
		t.Errorf("unknown experiment not rejected: %v", err)
	}
	if calls != 0 {
		t.Errorf("%d scenarios ran before the batch was rejected", calls)
	}
}

func TestDeriveSeed(t *testing.T) {
	if deriveSeed(1, "fig6a") != deriveSeed(1, "fig6a") {
		t.Error("deriveSeed not stable")
	}
	if deriveSeed(1, "fig6a") == deriveSeed(1, "fig6b") {
		t.Error("distinct labels must get distinct seeds")
	}
	if deriveSeed(1, "fig6a") == deriveSeed(2, "fig6a") {
		t.Error("distinct base seeds must derive distinct seeds")
	}
	// The derivation is a documented contract (every derived scenario
	// seed, and so every stored corpus, depends on it): pin one value so
	// accidental changes to the mixing fail loudly.
	if got := deriveSeed(1, "fig6a"); got != 3590564834515440597 {
		t.Errorf("deriveSeed(1, fig6a) = %d, want 3590564834515440597 (derivation changed!)", got)
	}
	seen := map[int64]string{}
	for _, s := range scenario.AllExperiments() {
		d := DeriveScenarioSeed(1, s)
		if prev, dup := seen[d]; dup {
			t.Errorf("seed collision between %s and %s", prev, s.Experiment)
		}
		seen[d] = s.Experiment
	}
}

// TestWriteTextSkipsFailures: a failed scenario shows as an ERROR row
// and contributes no report rendering; the successful ones still print.
func TestWriteTextSkipsFailures(t *testing.T) {
	run := func(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
		if s.Experiment == "fig6a" {
			return nil, errors.New("synthetic failure")
		}
		rep := exp.NewReport(s.Experiment+"-report", "t")
		rep.Table("x", "h").AddRow("v")
		return &scenario.Result{Role: s.Role, Experiment: s.Experiment, Seed: seed, Report: rep}, nil
	}
	specs := []scenario.Scenario{scenario.FromExperiment("fig6a"), scenario.FromExperiment("fig6b"), scenario.FromExperiment("fig13")}
	b, err := RunScenarios(context.Background(), ScenarioOptions{Scenarios: specs, Parallel: 1, Runner: ScenarioRunFunc(run)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ERROR: synthetic failure") {
		t.Error("failed scenario has no ERROR row")
	}
	if strings.Contains(out, "fig6a-report") {
		t.Error("failed scenario rendered a report")
	}
	if !strings.Contains(out, "fig6b-report") || !strings.Contains(out, "fig13-report") {
		t.Error("successful reports missing from text stream")
	}
}

func TestBatchJSONShape(t *testing.T) {
	spec := scenario.FromExperiment("fig13")
	b, err := RunScenarios(context.Background(), ScenarioOptions{
		Scenarios: []scenario.Scenario{spec}, BaseSeed: 1, Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		BaseSeed int64 `json:"base_seed"`
		Failed   int   `json:"failed"`
		Results  []struct {
			Scenario struct {
				Role       string `json:"role"`
				Experiment string `json:"experiment"`
			} `json:"scenario"`
			Seed   int64 `json:"seed"`
			Result *struct {
				Experiment string `json:"experiment"`
				Report     *struct {
					ID      string             `json:"id"`
					Metrics map[string]float64 `json:"metrics"`
				} `json:"report"`
			} `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("batch JSON does not round-trip: %v", err)
	}
	if decoded.BaseSeed != 1 || decoded.Failed != 0 || len(decoded.Results) != 1 {
		t.Fatalf("unexpected batch shape: %+v", decoded)
	}
	r := decoded.Results[0]
	if r.Scenario.Role != scenario.RoleExperiment || r.Scenario.Experiment != "fig13" {
		t.Fatalf("scenario missing from JSON: %+v", r.Scenario)
	}
	if r.Result == nil || r.Result.Report == nil || r.Result.Report.ID != "fig13" {
		t.Fatalf("report missing from JSON: %+v", r.Result)
	}
	if r.Seed != DeriveScenarioSeed(1, spec) {
		t.Errorf("JSON seed %d is not the derived seed", r.Seed)
	}
	if len(r.Result.Report.Metrics) == 0 {
		t.Error("metrics missing from JSON report")
	}
}
