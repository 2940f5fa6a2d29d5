package ichannels_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"testing"

	"ichannels"
)

// The root package is the public API surface; these tests exercise it the
// way a downstream user would.

func TestQuickstartFlow(t *testing.T) {
	proc := ichannels.CannonLake8121U()
	m, err := ichannels.NewMachine(ichannels.MachineOptions{Processor: proc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ichannels.NewChannel(m, ichannels.DefaultChannelParams(ichannels.CrossCore, proc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Calibrate(4); err != nil {
		t.Fatal(err)
	}
	res, err := ch.Transmit([]int{1, 0, 1, 1, 0, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.BER != 0 {
		t.Fatalf("BER = %g", res.BER)
	}
}

func TestProcessorsExposed(t *testing.T) {
	if len(ichannels.Processors()) != 3 {
		t.Fatal("three characterized processors expected")
	}
	if _, err := ichannels.ProcessorByName("Cannon Lake"); err != nil {
		t.Fatal(err)
	}
}

func TestFrameCodingExposed(t *testing.T) {
	frame, err := ichannels.EncodeFrame([]byte("hi"), 7)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := ichannels.DecodeFrame(frame, 7)
	if err != nil || string(back) != "hi" {
		t.Fatalf("frame roundtrip: %q, %v", back, err)
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	if len(ichannels.Experiments()) < 19 {
		t.Fatalf("experiments = %d", len(ichannels.Experiments()))
	}
	for _, e := range ichannels.Experiments() {
		if e.ID == "" || e.Section == "" || e.Desc == "" {
			t.Fatalf("incomplete experiment info: %+v", e)
		}
	}
	rep, err := ichannels.RunExperiment("fig11", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics["throttled_undelivered_frac"] < 0.7 {
		t.Fatal("fig11 metric missing")
	}
}

func TestExperimentEngineExposed(t *testing.T) {
	specs := []ichannels.Scenario{ichannels.ScenarioFromExperiment("fig13"), ichannels.ScenarioFromExperiment("fig11")}
	batch, err := ichannels.RunScenarios(context.Background(), ichannels.ScenarioBatchOptions{
		Scenarios: specs, BaseSeed: 1, Parallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || len(batch.Failed()) != 0 {
		t.Fatalf("batch: %d results, %d failed", len(batch.Results), len(batch.Failed()))
	}
	if batch.Results[0].Result.Report.ID != "fig13" || batch.Results[1].Result.Report.ID != "fig11" {
		t.Fatal("batch results not in request order")
	}
	// Each experiment runs with a seed derived from its spec, not from
	// its position: a reversed batch hands out the same seeds.
	rev, err := ichannels.RunScenarios(context.Background(), ichannels.ScenarioBatchOptions{
		Scenarios: []ichannels.Scenario{specs[1], specs[0]}, BaseSeed: 1, Parallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := batch.Results[0], batch.Results[1]
	if a.Seed == b.Seed || a.Result.Seed != a.Seed {
		t.Fatalf("batch seeds not derived per spec: %d, %d (result ran with %d)", a.Seed, b.Seed, a.Result.Seed)
	}
	if rev.Results[1].Seed != a.Seed || rev.Results[0].Seed != b.Seed {
		t.Fatal("derived seeds depend on batch order")
	}
}

func TestExperimentServerExposed(t *testing.T) {
	ts := httptest.NewServer(ichannels.NewAPIServer(ichannels.ServerOptions{}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/experiments: %d", resp.StatusCode)
	}
	var list []ichannels.ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(ichannels.Experiments()) {
		t.Fatalf("served %d experiments, registry has %d", len(list), len(ichannels.Experiments()))
	}
}

func TestMitigationAPI(t *testing.T) {
	a, err := ichannels.EvaluateMitigation(ichannels.SecureMode, ichannels.SameThread,
		ichannels.CannonLake8121U(), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.BER < 0.3 {
		t.Fatalf("secure mode left BER at %g", a.BER)
	}
}

func TestAgentAPI(t *testing.T) {
	proc := ichannels.CannonLake8121U()
	m, err := ichannels.NewMachine(ichannels.MachineOptions{Processor: proc, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	agent := ichannels.AgentFunc{AgentName: "user", Fn: func(env *ichannels.AgentEnv, prev *ichannels.Result) ichannels.Action {
		if prev == nil {
			return ichannels.Exec(ichannels.KernelFor(ichannels.Vec256Heavy), 100)
		}
		done = true
		return ichannels.StopAction()
	}}
	if _, err := m.Bind(0, 0, agent); err != nil {
		t.Fatal(err)
	}
	m.RunFor(200 * ichannels.Microsecond)
	if !done {
		t.Fatal("agent did not complete")
	}
	if m.Cores[0].ThrottleTime(m.Now()) <= 0 {
		t.Fatal("PHI burst must have throttled the core")
	}
}

// TestScenarioAPIExposed exercises the v1 Scenario surface end to end
// the way a downstream user would: one declarative spec through the Go
// entry point, a batch through the engine, and the same spec over HTTP
// — all three producing byte-identical result JSON for a fixed seed.
func TestScenarioAPIExposed(t *testing.T) {
	spec := ichannels.Scenario{Role: "channel", Kind: "cores", Bits: 16, Seed: 5}

	direct, err := ichannels.RunScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if direct.BER != 0 || direct.ThroughputBPS <= 0 {
		t.Errorf("quiet-machine channel run degraded: BER=%v bps=%v", direct.BER, direct.ThroughputBPS)
	}

	batch, err := ichannels.RunScenarios(context.Background(), ichannels.ScenarioBatchOptions{
		Scenarios: []ichannels.Scenario{spec, ichannels.ScenarioFromExperiment("fig13")},
		BaseSeed:  1, Parallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Failed()) != 0 {
		t.Fatalf("batch failed: %v", batch.Failed()[0].Err)
	}
	wantJSON, _ := json.Marshal(direct)
	gotJSON, _ := json.Marshal(batch.Results[0].Result)
	if string(wantJSON) != string(gotJSON) {
		t.Error("batch result differs from direct RunScenario for the same pinned seed")
	}
	if batch.Results[1].Result.Report == nil {
		t.Error("experiment-role scenario returned no report")
	}

	ts := httptest.NewServer(ichannels.NewAPIServer(ichannels.ServerOptions{}).Handler())
	defer ts.Close()
	body, _ := json.Marshal(spec)
	resp, err := ts.Client().Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST /v1/scenarios: status %d", resp.StatusCode)
	}
	var served struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	var typed ichannels.ScenarioResult
	if err := json.Unmarshal(served.Result, &typed); err != nil {
		t.Fatal(err)
	}
	renorm, _ := json.Marshal(&typed)
	if string(renorm) != string(wantJSON) {
		t.Errorf("HTTP result differs from direct RunScenario:\n%s\n%s", renorm, wantJSON)
	}

	if len(ichannels.ScenarioSchemaJSON()) == 0 || len(ichannels.AllExperimentScenarios()) == 0 {
		t.Error("schema or experiment generators empty")
	}
}

// TestSweepAPIExposed exercises the sweep surface the way a downstream
// user would: parse the checked-in Table-6-style spec, expand it (≥ 48
// cells), run it through the streaming engine, and POST the same spec
// to /v1/sweeps — with byte-identical aggregate output between the two
// transports.
func TestSweepAPIExposed(t *testing.T) {
	data, err := os.ReadFile("examples/sweeps/specs/table6_processor_mitigation.json")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ichannels.ParseSweepSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := ichannels.ExpandSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 48 {
		t.Fatalf("the checked-in grid expands to %d cells, want ≥ 48", len(cells))
	}

	streamed := 0
	res, err := ichannels.RunSweep(context.Background(), sw, ichannels.SweepOptions{
		BaseSeed: 7, Parallel: 8,
		OnCell: func(o ichannels.SweepCellOutcome) error { streamed++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || streamed != len(cells) || len(res.Cells) != len(cells) {
		t.Fatalf("ran %d/%d cells, %d failed", streamed, len(cells), res.Failed)
	}
	var direct bytes.Buffer
	if err := ichannels.WriteSweepAggregateLine(&direct, res.Aggregate); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(ichannels.NewAPIServer(ichannels.ServerOptions{}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/sweeps?seed=7", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST /v1/sweeps: status %d", resp.StatusCode)
	}
	wire, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(wire), []byte("\n"))
	if len(lines) != len(cells)+1 {
		t.Fatalf("HTTP stream has %d lines, want %d cells + aggregate", len(lines), len(cells))
	}
	if got := string(lines[len(lines)-1]) + "\n"; got != direct.String() {
		t.Errorf("HTTP aggregate differs from RunSweep:\nhttp:   %sdirect: %s", got, direct.String())
	}

	if len(ichannels.SweepSchemaJSON()) == 0 {
		t.Error("sweep schema empty")
	}
}
