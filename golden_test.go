package ichannels_test

// Golden-file regression tests: the quickstart scenario's result
// envelope and the 88-cell Table-6 sweep aggregate are checked in under
// testdata/golden/ and compared byte for byte, so any drift in the wire
// format (field renames, ordering, float formatting, simulation-output
// changes) fails loudly instead of silently invalidating stored
// corpora. Regenerate intentionally with:
//
//	go test -run TestGolden . -update

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ichannels"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// compareGolden asserts got matches the checked-in golden file (or
// rewrites it under -update).
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v — run `go test -run TestGolden . -update` to create it", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s — if the wire-format change is intentional, "+
			"regenerate with `go test -run TestGolden . -update` and review the diff\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// indented marshals v the way the golden files store it (readable
// diffs; compaction-free byte comparison).
func indented(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestGoldenQuickstartResult pins the full result envelope of the
// checked-in quickstart scenario (pinned seed 7).
func TestGoldenQuickstartResult(t *testing.T) {
	data, err := os.ReadFile("examples/scenarios/specs/quickstart.json")
	if err != nil {
		t.Fatal(err)
	}
	specs, _, err := ichannels.ParseScenarioSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ichannels.RunScenario(context.Background(), specs[0])
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "quickstart_result.json"), indented(t, res))
}

// TestGoldenTable6Aggregate pins the grouped aggregate of the
// checked-in 88-cell Table-6 sweep at base seed 1 — the repository's
// headline table shape.
func TestGoldenTable6Aggregate(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("examples", "sweeps", "specs", "table6_processor_mitigation.json"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ichannels.ParseSweepSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ichannels.RunSweep(context.Background(), sw, ichannels.SweepOptions{BaseSeed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 88 || res.Failed != 0 {
		t.Fatalf("table6 grid ran %d cells (%d failed), want 88/0", len(res.Cells), res.Failed)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "table6_aggregate.json"), indented(t, res.Aggregate))
}

// TestGoldenCrossFamily pins the result envelopes of one retire and one
// clockmod transmission (the adopted channel families) and the grouped
// aggregate of the 20-cell cross-family sweep — every kind × every
// mitigation — at base seed 1. Any drift in the new families' decode or
// their wire format fails here byte for byte.
func TestGoldenCrossFamily(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("examples", "scenarios", "specs", "crossfamily.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs, _, err := ichannels.ParseScenarioSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ichannels.ScenarioResult, len(specs))
	for i, s := range specs {
		if results[i], err = ichannels.RunScenario(context.Background(), s); err != nil {
			t.Fatalf("%s: %v", s.Describe(), err)
		}
	}
	compareGolden(t, filepath.Join("testdata", "golden", "crossfamily_results.json"), indented(t, results))

	sweepData, err := os.ReadFile(filepath.Join("examples", "sweeps", "specs", "crossfamily_kind_mitigation.json"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ichannels.ParseSweepSpec(sweepData)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ichannels.RunSweep(context.Background(), sw, ichannels.SweepOptions{BaseSeed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 20 || res.Failed != 0 {
		t.Fatalf("cross-family grid ran %d cells (%d failed), want 20/0", len(res.Cells), res.Failed)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "crossfamily_aggregate.json"), indented(t, res.Aggregate))
}

// TestGoldenFig14RefinedAggregate pins the adaptive noise sweep's
// aggregate and refinement record at base seed 1 — both the wire shape
// of the refined trailing envelope and the controller's deterministic
// cell selection (which pass computed what) are covered.
func TestGoldenFig14RefinedAggregate(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("examples", "sweeps", "specs", "fig14_noise_refined.json"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ichannels.ParseSweepSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ichannels.RefineSweep(context.Background(), sw, ichannels.SweepOptions{BaseSeed: 1, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d cells failed", res.Failed)
	}
	envelope := struct {
		Aggregate  *ichannels.SweepTable           `json:"aggregate"`
		Refinement *ichannels.SweepRefinementStats `json:"refinement"`
	}{res.Aggregate, res.Refinement}
	compareGolden(t, filepath.Join("testdata", "golden", "fig14_refined_aggregate.json"), indented(t, envelope))
}

// TestGoldenRoles pins the result bytes of the run paths the other
// goldens leave uncovered: the baseline role for every baseline, the spy
// role for both spy kinds, the channel role with every params override
// for one kind of each channel family, mitigation-eval on a one-core
// machine, the facade's EvaluateMitigation matrix (the one
// examples/mitigations prints) and the table1 experiment report.
func TestGoldenRoles(t *testing.T) {
	ctx := context.Background()
	run := func(specs ...string) []*ichannels.ScenarioResult {
		t.Helper()
		out := make([]*ichannels.ScenarioResult, len(specs))
		for i, spec := range specs {
			var s ichannels.Scenario
			if err := json.Unmarshal([]byte(spec), &s); err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			res, err := ichannels.RunScenario(ctx, s)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			out[i] = res
		}
		return out
	}

	type assessment struct {
		Mitigation     string  `json:"mitigation"`
		Channel        string  `json:"channel"`
		Verdict        string  `json:"verdict"`
		BER            float64 `json:"ber"`
		CalibrationGap float64 `json:"calibration_gap"`
		EffectiveBPS   float64 `json:"effective_bps"`
	}
	var matrix []assessment
	proc := ichannels.CannonLake8121U()
	for _, mk := range []ichannels.Mitigation{ichannels.NoMitigation, ichannels.PerCoreVR,
		ichannels.ImprovedThrottling, ichannels.SecureMode} {
		for _, ck := range []ichannels.ChannelKind{ichannels.SameThread, ichannels.SMT, ichannels.CrossCore} {
			a, err := ichannels.EvaluateMitigation(mk, ck, proc, 96, 5)
			if err != nil {
				t.Fatalf("%v × %v: %v", mk, ck, err)
			}
			matrix = append(matrix, assessment{mk.String(), ck.String(), a.Verdict.String(),
				a.BER, a.CalibrationGap, a.EffectiveBPS})
		}
	}

	got := struct {
		Baseline           []*ichannels.ScenarioResult `json:"baseline"`
		Spy                []*ichannels.ScenarioResult `json:"spy"`
		Channel            []*ichannels.ScenarioResult `json:"channel_params"`
		Mitigation         []*ichannels.ScenarioResult `json:"mitigation_one_core"`
		EvaluateMitigation []assessment                `json:"evaluate_mitigation"`
		Table1             []*ichannels.ScenarioResult `json:"table1"`
	}{
		Baseline: run(
			`{"role":"baseline","baseline":"netspectre","seed":3}`,
			`{"role":"baseline","baseline":"turbocc","seed":3}`,
			`{"role":"baseline","baseline":"dfscovert","seed":3}`,
			`{"role":"baseline","baseline":"powert","seed":3}`),
		Spy: run(
			`{"role":"spy","kind":"smt","seed":3}`,
			`{"role":"spy","kind":"cores","seed":3}`),
		Channel: run(
			`{"role":"channel","kind":"thread","bits":32,"seed":3,"params":{"slot_period_us":720,"sender_iters":72,"receiver_iters":70,"receiver_offset_us":1}}`,
			`{"role":"channel","kind":"retire","bits":32,"seed":3,"params":{"slot_period_us":24,"sender_iters":12,"receiver_iters":60,"receiver_offset_us":2}}`,
			`{"role":"channel","kind":"clockmod","bits":16,"seed":3,"params":{"slot_period_us":130,"receiver_iters":180,"receiver_offset_us":12}}`),
		Mitigation: run(
			`{"role":"mitigation-eval","kind":"thread","mitigation":"percore-vr","bits":16,"seed":3,"params":{"cores":1}}`),
		EvaluateMitigation: matrix,
		Table1:             run(`{"role":"experiment","experiment":"table1","seed":3}`),
	}
	compareGolden(t, filepath.Join("testdata", "golden", "roles_results.json"), indented(t, got))
}

// TestGoldenSlotChannels pins the one-bit-per-slot baselines: the fig12a,
// fig12b and table2 experiment reports at seed 3, and for each of the four
// baselines, built through the facade on the machines Fig. 12 uses, the gap
// Calibrate returns, the result of transmitting a fixed bit string and
// whether a Transmit before calibration is refused. NetSpectre's inverted
// polarity (a 1 reads faster) is the easiest thing here to break.
func TestGoldenSlotChannels(t *testing.T) {
	ctx := context.Background()
	var experiments []*ichannels.ScenarioResult
	for _, id := range []string{"fig12a", "fig12b", "table2"} {
		res, err := ichannels.RunScenario(ctx, ichannels.Scenario{Role: "experiment", Experiment: id, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		experiments = append(experiments, res)
	}

	type slotChannel interface {
		Calibrate(pairs int) (float64, error)
		Transmit(bits []int) (*ichannels.TransmitResult, error)
	}
	type baselineRun struct {
		Baseline            string                    `json:"baseline"`
		UncalibratedRefused bool                      `json:"uncalibrated_refused"`
		CalibrationGap      float64                   `json:"calibration_gap"`
		Result              *ichannels.TransmitResult `json:"result"`
	}
	machine := func(p ichannels.Processor, freq ichannels.Hertz, cores int, seed int64) *ichannels.Machine {
		t.Helper()
		m, err := ichannels.NewMachine(ichannels.MachineOptions{Processor: p, RequestedFreq: freq, Cores: cores, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	bits := []int{1, 0, 0, 1, 1, 1, 0, 1, 0, 0}
	cnl := ichannels.CannonLake8121U()
	var baselines []baselineRun
	for _, b := range []struct {
		name  string
		pairs int
		build func() (slotChannel, error)
	}{
		{"netspectre", 6, func() (slotChannel, error) {
			return ichannels.NewNetSpectre(machine(ichannels.CoffeeLake9700K(), 3.6*ichannels.GHz, 1, 4))
		}},
		{"turbocc", 3, func() (slotChannel, error) { return ichannels.NewTurboCC(machine(cnl, 3.1*ichannels.GHz, 2, 6)) }},
		{"dfscovert", 3, func() (slotChannel, error) { return ichannels.NewDFScovert(machine(cnl, 2.2*ichannels.GHz, 2, 5)) }},
		{"powert", 4, func() (slotChannel, error) { return ichannels.NewPowerT(machine(cnl, 2.2*ichannels.GHz, 2, 7)) }},
	} {
		ch, err := b.build()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		_, uncalErr := ch.Transmit(bits)
		gap, err := ch.Calibrate(b.pairs)
		if err != nil {
			t.Fatalf("%s: calibrate: %v", b.name, err)
		}
		res, err := ch.Transmit(bits)
		if err != nil {
			t.Fatalf("%s: transmit: %v", b.name, err)
		}
		baselines = append(baselines, baselineRun{b.name, uncalErr != nil, gap, res})
	}

	got := struct {
		Experiments []*ichannels.ScenarioResult `json:"experiments"`
		Baselines   []baselineRun               `json:"baselines"`
	}{experiments, baselines}
	compareGolden(t, filepath.Join("testdata", "golden", "slot_channels.json"), indented(t, got))
}
