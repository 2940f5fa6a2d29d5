package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"ichannels/internal/core"
	"ichannels/internal/exp"
	"ichannels/internal/isa"
)

// TestEveryRunPathReachable is the tentpole acceptance check at the
// package level: each run path the repo offers in Go — the three
// channel kinds, the four baselines, both spy variants, mitigation
// evaluation, and a registered experiment — executes through a
// pure-JSON spec and lands in the normalized envelope.
func TestEveryRunPathReachable(t *testing.T) {
	cases := []struct {
		json string
		// expectations on the envelope
		wantBits  bool
		wantVerd  bool
		wantRep   bool
		wantExtra string
	}{
		{json: `{"role":"channel","kind":"thread","bits":16}`, wantBits: true, wantExtra: "calibration_gap_cycles"},
		{json: `{"role":"channel","kind":"smt","bits":16}`, wantBits: true},
		{json: `{"role":"channel","kind":"cores","bits":16}`, wantBits: true},
		{json: `{"role":"channel","kind":"retire","bits":16}`, wantBits: true, wantExtra: "calibration_gap_cycles"},
		{json: `{"role":"channel","kind":"clockmod","bits":16}`, wantBits: true, wantExtra: "raw_throughput_bps"},
		{json: `{"role":"baseline","baseline":"netspectre","processor":"Coffee Lake","bits":8}`, wantBits: true},
		{json: `{"role":"baseline","baseline":"turbocc","bits":4}`, wantBits: true},
		{json: `{"role":"baseline","baseline":"dfscovert","bits":4}`, wantBits: true},
		{json: `{"role":"baseline","baseline":"powert","bits":6}`, wantBits: true},
		{json: `{"role":"spy","kind":"smt","bits":8}`, wantBits: true, wantExtra: "accuracy"},
		{json: `{"role":"spy","kind":"cores","bits":8}`, wantBits: true, wantExtra: "accuracy"},
		{json: `{"role":"mitigation-eval","mitigation":"percore-vr","kind":"cores","bits":16}`, wantVerd: true},
		{json: `{"role":"mitigation-eval","mitigation":"secure-mode","kind":"thread","bits":16}`, wantVerd: true},
		{json: `{"role":"mitigation-eval","mitigation":"improved-throttling","kind":"retire","bits":16}`, wantVerd: true},
		{json: `{"role":"mitigation-eval","mitigation":"none","kind":"clockmod","bits":16}`, wantVerd: true},
		{json: `{"role":"experiment","experiment":"fig13"}`, wantRep: true},
	}
	for _, tc := range cases {
		var s Scenario
		if err := json.Unmarshal([]byte(tc.json), &s); err != nil {
			t.Fatalf("%s: unmarshal: %v", tc.json, err)
		}
		res, err := Run(context.Background(), s)
		if err != nil {
			t.Errorf("%s: %v", tc.json, err)
			continue
		}
		if res.Hash == "" || res.Seed != DefaultSeed || res.Role == "" {
			t.Errorf("%s: incomplete envelope: %+v", tc.json, res)
		}
		if tc.wantBits && (res.Bits == 0 || len(res.SentBits) != res.Bits || len(res.DecodedBits) != res.Bits) {
			t.Errorf("%s: bit streams missing: bits=%d sent=%d decoded=%d", tc.json, res.Bits, len(res.SentBits), len(res.DecodedBits))
		}
		if tc.wantVerd && res.Verdict == "" {
			t.Errorf("%s: no verdict", tc.json)
		}
		if tc.wantRep && res.Report == nil {
			t.Errorf("%s: no report", tc.json)
		}
		if tc.wantExtra != "" {
			if _, ok := res.Extra[tc.wantExtra]; !ok {
				t.Errorf("%s: extra %q missing (have %v)", tc.json, tc.wantExtra, res.Extra)
			}
		}
	}
}

// TestDeterministicResultJSON: same spec + seed ⇒ byte-identical Result
// JSON, run to run.
func TestDeterministicResultJSON(t *testing.T) {
	spec := Scenario{
		Role: RoleChannel, Kind: KindCores, Bits: 32, Seed: 42,
		Noise: &Noise{InterruptsPerSec: 500, CtxSwitchesPerSec: 100, TSCJitterCycles: 150},
	}
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("same spec+seed produced different result JSON:\n%s\n%s", ja, jb)
	}
	c, err := Run(context.Background(), Scenario{
		Role: RoleChannel, Kind: KindCores, Bits: 32, Seed: 43,
		Noise: &Noise{InterruptsPerSec: 500, CtxSwitchesPerSec: 100, TSCJitterCycles: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Error("different seeds produced identical result JSON (suspicious)")
	}
}

// TestPayloadRoundTrip sends a literal payload with ECC coding under
// noise and recovers it.
func TestPayloadRoundTrip(t *testing.T) {
	res, err := Run(context.Background(), Scenario{
		Role: RoleChannel, Kind: KindCores, Payload: "IChannels", Coding: &Coding{},
		Noise: &Noise{InterruptsPerSec: 300, CtxSwitchesPerSec: 50, TSCJitterCycles: 100},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodedPayload != "IChannels" {
		t.Errorf("payload round-trip: got %q (notes %v)", res.DecodedPayload, res.Notes)
	}
	if _, ok := res.Extra["ecc_corrected_bits"]; !ok {
		t.Error("ecc_corrected_bits extra missing")
	}
	// Raw (uncoded) payload path.
	raw, err := Run(context.Background(), Scenario{Role: RoleChannel, Kind: KindThread, Payload: "ok", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if raw.DecodedPayload != "ok" {
		t.Errorf("uncoded payload: got %q", raw.DecodedPayload)
	}
}

// TestHashIdentity: the hash excludes labels and seed, folds aliases
// and defaults, and distinguishes different runs.
func TestHashIdentity(t *testing.T) {
	base := Scenario{Role: RoleChannel, Kind: KindCores, Bits: 64}
	same := []Scenario{
		{Role: "Channel", Kind: "CORES", Bits: 64},
		{Role: RoleChannel, Kind: KindCores, Bits: 64, Name: "labelled", Seed: 99},
		{Role: RoleChannel, Kind: KindCores, Processor: "Core i3-8121U", Bits: 64},
		{Role: RoleChannel, Bits: 64},                                   // kind defaults to cores
		{Role: RoleChannel, Kind: KindCores},                            // bits defaults to 64
		{Role: RoleChannel, Kind: KindCores, Bits: 64, Noise: &Noise{}}, // empty noise collapses
	}
	for i, s := range same {
		if s.Hash() != base.Hash() {
			t.Errorf("spec %d should hash like the base: %s vs %s", i, s.Hash(), base.Hash())
		}
	}
	diff := []Scenario{
		{Role: RoleChannel, Kind: KindSMT, Bits: 64},
		{Role: RoleChannel, Kind: KindCores, Bits: 32},
		{Role: RoleChannel, Kind: KindCores, Bits: 64, Processor: "Haswell"},
		{Role: RoleChannel, Kind: KindCores, Bits: 64, Noise: &Noise{InterruptsPerSec: 1}},
		{Role: RoleMitigation, Kind: KindCores, Bits: 64},
	}
	for i, s := range diff {
		if s.Hash() == base.Hash() {
			t.Errorf("spec %d should hash differently from the base", i)
		}
	}
	if h := (Scenario{Role: RoleMitigation, Mitigation: "per-core-vr"}).Hash(); h != (Scenario{Role: RoleMitigation, Mitigation: "percorevr"}).Hash() {
		t.Error("mitigation aliases should hash identically")
	}
}

// TestValidateRejects covers the validation matrix.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		s    Scenario
		frag string
	}{
		{Scenario{}, "missing role"},
		{Scenario{Role: "warp"}, "unknown role"},
		{Scenario{Role: RoleChannel, Kind: "quantum"}, "unknown channel kind"},
		{Scenario{Role: RoleChannel, Processor: "Pentium"}, "unknown processor"},
		{Scenario{Role: RoleChannel, Kind: KindSMT, Processor: "Coffee Lake"}, "requires an SMT processor"},
		{Scenario{Role: RoleChannel, Bits: 7}, "must be even"},
		{Scenario{Role: RoleChannel, Bits: -2}, "must be positive"},
		{Scenario{Role: RoleChannel, Bits: MaxBits + 2}, "exceeds the per-scenario limit"},
		{Scenario{Role: RoleChannel, Bits: 8, Payload: "x"}, "mutually exclusive"},
		{Scenario{Role: RoleChannel, Payload: strings.Repeat("x", 256)}, "255-byte frame limit"},
		{Scenario{Role: RoleChannel, Coding: &Coding{}}, "coding requires a payload"},
		{Scenario{Role: RoleBaseline}, "requires a baseline name"},
		{Scenario{Role: RoleBaseline, Baseline: "meltdown"}, "unknown baseline"},
		{Scenario{Role: RoleBaseline, Baseline: BaselinePowerT, Params: &Params{Cores: 1}}, "at least 2 cores"},
		{Scenario{Role: RoleBaseline, Baseline: BaselineTurboCC, Kind: KindCores}, "kind must be empty"},
		{Scenario{Role: RoleSpy, Kind: KindThread}, "must be smt or cores"},
		{Scenario{Role: RoleSpy, Payload: "x"}, "only valid for roles channel and baseline"},
		{Scenario{Role: RoleSpy, Coding: &Coding{InterleaveDepth: 3}}, "only valid for role channel"},
		{Scenario{Role: RoleMitigation, Mitigation: "prayer"}, "unknown mitigation"},
		{Scenario{Role: RoleMitigation, Noise: &Noise{TSCJitterCycles: 5}}, "its own noise environment"},
		{Scenario{Role: RoleChannel, Mitigation: MitigationSecureMode}, "only valid for role mitigation-eval"},
		{Scenario{Role: RoleChannel, Baseline: BaselinePowerT}, "only valid for role baseline"},
		{Scenario{Role: RoleExperiment}, "requires an experiment id"},
		{Scenario{Role: RoleExperiment, Experiment: "fig99"}, "unknown experiment"},
		{Scenario{Role: RoleExperiment, Experiment: "fig13", Bits: 8}, "must be empty"},
		{Scenario{Role: RoleChannel, Experiment: "fig13"}, "only valid with role experiment"},
		{Scenario{Role: RoleChannel, Noise: &Noise{InterruptsPerSec: -1}}, "non-negative"},
		{Scenario{Role: RoleChannel, Params: &Params{SenderIters: -1}}, "non-negative"},
		{Scenario{Role: RoleChannel, Params: &Params{Cores: 99}}, "exceeds"},
		{Scenario{Role: RoleBaseline, Baseline: BaselineNetSpectre, Params: &Params{SenderIters: 5}}, "only valid for role channel"},
		{Scenario{Role: RoleSpy, Params: &Params{SlotPeriodUS: 10}}, "only valid for role channel"},
		{Scenario{Role: RoleMitigation, Params: &Params{FreqGHz: 2.2}}, "only params.cores"},
		{Scenario{Role: RoleMitigation, Params: &Params{CalibReps: 4}}, "only params.cores"},
		{Scenario{Role: RoleChannel, Seed: -1}, "seed must be non-negative"},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%+v: validated but should contain %q", tc.s, tc.frag)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%+v: error %q does not contain %q", tc.s, err, tc.frag)
		}
	}
	// Run must refuse invalid specs too.
	if _, err := Run(context.Background(), Scenario{Role: "warp"}); err == nil {
		t.Error("Run accepted an invalid spec")
	}
}

// TestExperimentGenerators: the canned generators cover the registry
// and inherit injection via Runner.ExpRun.
func TestExperimentGenerators(t *testing.T) {
	all := AllExperiments()
	if len(all) != len(exp.IDs()) {
		t.Fatalf("AllExperiments returned %d scenarios, registry has %d", len(all), len(exp.IDs()))
	}
	var gotID string
	var gotSeed int64
	r := Runner{ExpRun: func(id string, seed int64) (*exp.Report, error) {
		gotID, gotSeed = id, seed
		return exp.NewReport(id, "fake"), nil
	}}
	n, hash, err := all[3].Identify()
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunCell(context.Background(), n, hash, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != exp.IDs()[3] || gotSeed != DefaultSeed {
		t.Errorf("injected runner saw (%s, %d)", gotID, gotSeed)
	}
	if res.Report == nil || res.Report.Title != "fake" {
		t.Errorf("injected report lost: %+v", res.Report)
	}
}

// TestSchemaJSON: the schema endpoint payload parses and names every
// role and processor.
func TestSchemaJSON(t *testing.T) {
	var doc map[string]any
	if err := json.Unmarshal(SchemaJSON(), &doc); err != nil {
		t.Fatalf("schema is not valid JSON: %v", err)
	}
	props, ok := doc["properties"].(map[string]any)
	if !ok {
		t.Fatal("schema has no properties")
	}
	for _, field := range []string{"role", "processor", "kind", "baseline", "mitigation", "experiment", "noise", "coding", "bits", "payload", "seed", "params"} {
		if _, ok := props[field]; !ok {
			t.Errorf("schema missing field %q", field)
		}
	}
	b, _ := json.Marshal(props["experiment"])
	for _, id := range exp.IDs() {
		if !strings.Contains(string(b), id) {
			t.Errorf("schema experiment enum missing %q", id)
		}
	}
}

// TestContextCancellation: a cancelled context aborts before simulating.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Scenario{Role: RoleChannel, Bits: 8}); err == nil {
		t.Error("cancelled context did not abort the run")
	}
}

// cancelAfterFirstCheck is a context whose Err is nil on the first call
// and context.Canceled on every later one: it is cancelled after a run's
// up-front check, while the run is calibrating.
type cancelAfterFirstCheck struct {
	context.Context
	checks int
}

func (c *cancelAfterFirstCheck) Err() error {
	c.checks++
	if c.checks == 1 {
		return nil
	}
	return context.Canceled
}

// TestCancelledBetweenCalibrationAndTransmit: a context cancelled while
// a run calibrates stops it before it transmits, in every role that
// calibrates and then transmits.
func TestCancelledBetweenCalibrationAndTransmit(t *testing.T) {
	for _, s := range []Scenario{
		{Role: RoleChannel, Bits: 8},
		{Role: RoleBaseline, Baseline: BaselineNetSpectre, Bits: 8},
		{Role: RoleMitigation, Bits: 8},
	} {
		ctx := &cancelAfterFirstCheck{Context: context.Background()}
		if _, err := Run(ctx, s); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", s.Describe(), err)
		}
	}
}

// TestSpyWindowsInvertsWidthBits: SpyWindows reads a spy result's bit
// streams back as the window classes they encode, and a spy run's
// windows agree with its recorded accuracy.
func TestSpyWindowsInvertsWidthBits(t *testing.T) {
	widths := core.VictimWidths()
	classes := append(append([]isa.Class(nil), widths...), widths[2], widths[0])
	if got := SpyWindows(widthBits(classes)); !slices.Equal(got, classes) {
		t.Fatalf("SpyWindows(widthBits(%v)) = %v", classes, got)
	}
	res, err := Run(context.Background(), Scenario{Role: RoleSpy, Kind: KindSMT})
	if err != nil {
		t.Fatal(err)
	}
	actual, inferred := SpyWindows(res.SentBits), SpyWindows(res.DecodedBits)
	if len(actual) != res.Bits/2 || len(inferred) != len(actual) {
		t.Fatalf("%d bits decoded to %d and %d windows", res.Bits, len(actual), len(inferred))
	}
	hits := 0
	for i := range actual {
		if actual[i] == inferred[i] {
			hits++
		}
	}
	if acc := float64(hits) / float64(len(actual)); acc != res.Extra["accuracy"] {
		t.Errorf("windows agree at %v, result records accuracy %v", acc, res.Extra["accuracy"])
	}
}
