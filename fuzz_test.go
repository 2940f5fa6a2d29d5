package ichannels_test

// Native fuzz targets for the strict spec parsers (the one decoder the
// CLI and HTTP v1 layer share). The invariant under fuzz: a payload the
// parser accepts must normalize to a fixed point —
// parse → normalize → marshal → re-parse → normalize → marshal yields
// the same bytes — and nothing in the parse/normalize/validate/hash
// path may panic. CI runs each target for a short smoke window; longer
// local runs: go test -run '^$' -fuzz FuzzParseSpecs -fuzztime 2m .

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ichannels"
)

// seedFromSpecs adds every checked-in example spec matching pattern to
// the corpus.
func seedFromSpecs(f *testing.F, pattern string) {
	f.Helper()
	files, err := filepath.Glob(pattern)
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed specs match %s (err=%v)", pattern, err)
	}
	for _, fn := range files {
		data, err := os.ReadFile(fn)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

func FuzzParseSpecs(f *testing.F) {
	seedFromSpecs(f, "examples/scenarios/specs/*.json")
	f.Add([]byte(`{"role":"channel","kind":"smt","bits":16,"noise":{}}`))
	f.Add([]byte(`[{"role":"spy"},{"role":"experiment","experiment":"fig6a","seed":3}]`))
	f.Add([]byte(`{"role":"mitigation-eval","mitigation":"per-core-vr","kind":"thread","processor":"coffee lake"}`))
	f.Add([]byte(`{"role":"baseline","baseline":"turbocc","params":{"freq_ghz":3.5}}`))
	f.Add([]byte(`{"role":"channel","kind":"retire","bits":32,"params":{"slot_period_us":40,"sender_iters":8}}`))
	f.Add([]byte(`{"role":"channel","kind":"clockmod","payload":"hi","noise":{"tsc_jitter_cycles":150}}`))
	f.Add([]byte(`{"role":"mitigation-eval","kind":"clockmod","mitigation":"securemode","bits":16}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, isArray, err := ichannels.ParseScenarioSpecs(data)
		if err != nil {
			return // rejected payloads only need to not panic
		}
		norm := make([]ichannels.Scenario, len(specs))
		for i, s := range specs {
			norm[i] = s.Normalized()
			// Validate and Hash must never panic, valid spec or not.
			verr := norm[i].Validate()
			_ = norm[i].Hash()
			_ = norm[i].Describe()
			// Identify is the three calls in one pass.
			n, hash, err := s.Identify()
			if (err == nil) != (verr == nil) || (err != nil && err.Error() != verr.Error()) {
				t.Fatalf("Identify error %v, Validate error %v", err, verr)
			}
			if err == nil && (!reflect.DeepEqual(n, norm[i]) || hash != s.Hash()) {
				t.Fatalf("Identify = (%+v, %s), want Normalized, Hash = (%+v, %s)", n, hash, norm[i], s.Hash())
			}
		}
		blob := marshalSpecs(t, norm, isArray)
		specs2, isArray2, err := ichannels.ParseScenarioSpecs(blob)
		if err != nil {
			t.Fatalf("re-parse of normalized marshal failed: %v\n%s", err, blob)
		}
		if isArray2 != isArray {
			t.Fatalf("array-ness flipped across re-marshal: %v -> %v", isArray, isArray2)
		}
		for i := range specs2 {
			specs2[i] = specs2[i].Normalized()
		}
		if blob2 := marshalSpecs(t, specs2, isArray); !bytes.Equal(blob, blob2) {
			t.Fatalf("normalize/marshal is not a fixed point:\nfirst:  %s\nsecond: %s", blob, blob2)
		}
	})
}

// marshalSpecs re-marshals specs in the payload's original shape.
func marshalSpecs(t *testing.T, specs []ichannels.Scenario, isArray bool) []byte {
	t.Helper()
	var v any = specs
	if !isArray {
		v = specs[0]
	}
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal of parsed specs failed: %v", err)
	}
	return blob
}

// FuzzParseCellDispatch fuzzes the coordinator↔worker wire frame (the
// distributed tier's POST /v1/cells payload). Seeds are genuine
// dispatch traffic: every cell of every checked-in example sweep,
// framed exactly as the coordinator frames them, plus hand-written
// frames. Invariants: the strict parser never panics, Validate never
// panics on accepted frames, and parse → normalize → marshal is a
// fixed point.
func FuzzParseCellDispatch(f *testing.F) {
	files, err := filepath.Glob("examples/sweeps/specs/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed sweeps (err=%v)", err)
	}
	for _, fn := range files {
		data, err := os.ReadFile(fn)
		if err != nil {
			f.Fatal(err)
		}
		sw, err := ichannels.ParseSweepSpec(data)
		if err != nil {
			f.Fatal(err)
		}
		cells, err := ichannels.ExpandSweep(sw)
		if err != nil {
			f.Fatal(err)
		}
		for _, c := range cells {
			frame, err := json.Marshal(ichannels.NewCellDispatch(c.Scenario, c.Scenario.Hash(), 42))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	f.Add([]byte(`{"v":1,"hash":"0011223344556677","seed":7,"scenario":{"role":"spy"}}`))
	f.Add([]byte(`{"v":2,"hash":"","seed":-1,"scenario":{}}`))
	f.Add([]byte(`{"v":1,"hash":"x","seed":1,"scenario":{"role":"channel","kind":"smt","bits":16,"noise":{}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ichannels.ParseCellDispatch(data)
		if err != nil {
			return // rejected frames only need to not panic
		}
		// Validate recomputes the scenario hash — the version-skew
		// check — and must be panic-free on anything the parser admits.
		_, _ = d.Validate()
		d.Scenario = d.Scenario.Normalized()
		blob, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal of parsed dispatch failed: %v", err)
		}
		d2, err := ichannels.ParseCellDispatch(blob)
		if err != nil {
			t.Fatalf("re-parse of normalized marshal failed: %v\n%s", err, blob)
		}
		d2.Scenario = d2.Scenario.Normalized()
		blob2, err := json.Marshal(d2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("normalize/marshal is not a fixed point:\nfirst:  %s\nsecond: %s", blob, blob2)
		}
	})
}

func FuzzParseSweep(f *testing.F) {
	seedFromSpecs(f, "examples/sweeps/specs/*.json")
	f.Add([]byte(`{"base":{"role":"channel","kind":"cores"},"axes":{"bits":[4,8],"processor":["Haswell"]}}`))
	f.Add([]byte(`{"base":{"role":"mitigation-eval"},"axes":{"kind":["smt","cores"]},"filters":[{"kind":"smt"}],"group_by":["kind"],"max_cells":10}`))
	f.Add([]byte(`{"base":{"role":"channel","bits":16},"axes":{"kind":["thread","smt","cores","retire","clockmod"]},"group_by":["kind"]}`))
	f.Add([]byte(`{"base":{"role":"mitigation-eval"},"axes":{"kind":["retire","clockmod"],"mitigation":["none","secure-mode"]}}`))
	f.Add([]byte(`{"base":{"role":"channel"},"axes":{"bits":[2,4,6,8]},"group_by":["bits"],"refine":{"stride":{"bits":2},"threshold":0.1}}`))
	f.Add([]byte(`{"base":{"role":"channel"},"axes":{"bits":[2,4,6]},"refine":{"metric":"THROUGHPUT_BPS","stride":{"BITS":2},"threshold":0.5,"max_passes":2,"max_cells_per_pass":3}}`))
	f.Add([]byte(`{"base":{"role":"channel"},"axes":{"bits":[2,4]},"refine":{"stride":{"noise":-1},"threshold":0}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sw, err := ichannels.ParseSweepSpec(data)
		if err != nil {
			return
		}
		norm := sw.Normalized()
		// The whole spec-level surface must be panic-free on arbitrary
		// accepted payloads (Validate expands and checks every cell).
		_ = norm.Validate()
		_ = norm.Hash()
		_ = norm.Describe()
		_ = norm.EffectiveGroupBy()
		blob, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("marshal of parsed sweep failed: %v", err)
		}
		sw2, err := ichannels.ParseSweepSpec(blob)
		if err != nil {
			t.Fatalf("re-parse of normalized marshal failed: %v\n%s", err, blob)
		}
		blob2, err := json.Marshal(sw2.Normalized())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("normalize/marshal is not a fixed point:\nfirst:  %s\nsecond: %s", blob, blob2)
		}
	})
}
