package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ichannels/internal/engine"
	"ichannels/internal/exp"
	"ichannels/internal/scenario"
)

// postJSON posts a body with the given content type.
func postJSON(t *testing.T, ts *httptest.Server, path, contentType, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// decodeErr unmarshals a structured error envelope.
func decodeErr(t *testing.T, body []byte) errorBody {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body not JSON: %v: %s", err, body)
	}
	return e
}

func TestV1ListAndSchema(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	code, body := get(t, ts, "/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/experiments: status %d", code)
	}
	var list []exp.Experiment
	if err := json.Unmarshal(body, &list); err != nil || len(list) != len(exp.IDs()) {
		t.Fatalf("v1 experiment list wrong: err=%v n=%d", err, len(list))
	}

	code, body = get(t, ts, "/v1/scenarios/schema")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/scenarios/schema: status %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("schema not JSON: %v", err)
	}
	if doc["title"] != "Scenario" {
		t.Errorf("schema title: %v", doc["title"])
	}

	// The pre-v1 routes are gone: experiments run as experiment-role
	// scenarios through POST /v1/scenarios.
	if code, _ := get(t, ts, "/experiments"); code != http.StatusNotFound {
		t.Errorf("GET /experiments: status %d, want 404", code)
	}
	if code, _ := post(t, ts, "/run/fig13?seed=1"); code != http.StatusNotFound {
		t.Errorf("POST /run/fig13: status %d, want 404", code)
	}
}

// TestV1MethodAndContentTypeChecks: mutating routes enforce method and
// Content-Type with structured errors.
func TestV1MethodAndContentTypeChecks(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	// Wrong method on each v1 route.
	code, body := post(t, ts, "/v1/experiments")
	if code != http.StatusMethodNotAllowed || decodeErr(t, body).Code != CodeMethodNotAllowed {
		t.Errorf("POST /v1/experiments: status %d body %s", code, body)
	}
	code, body = post(t, ts, "/v1/scenarios/schema")
	if code != http.StatusMethodNotAllowed || decodeErr(t, body).Code != CodeMethodNotAllowed {
		t.Errorf("POST /v1/scenarios/schema: status %d body %s", code, body)
	}
	code, body = get(t, ts, "/v1/scenarios")
	if code != http.StatusMethodNotAllowed || decodeErr(t, body).Code != CodeMethodNotAllowed {
		t.Errorf("GET /v1/scenarios: status %d body %s", code, body)
	}

	// Wrong / missing Content-Type on the mutating route.
	for _, ct := range []string{"", "text/plain", "application/x-www-form-urlencoded"} {
		code, body = postJSON(t, ts, "/v1/scenarios", ct, `{"role":"experiment","experiment":"fig13"}`)
		if code != http.StatusUnsupportedMediaType || decodeErr(t, body).Code != CodeUnsupportedMedia {
			t.Errorf("Content-Type %q: status %d body %s", ct, code, body)
		}
	}
	// Charset parameter is accepted.
	code, _ = postJSON(t, ts, "/v1/scenarios", "application/json; charset=utf-8", `{"role":"experiment","experiment":"fig13"}`)
	if code != http.StatusOK {
		t.Errorf("application/json with charset rejected: status %d", code)
	}
}

// TestV1SeedValidation: malformed or conflicting seed query values are
// 400s with a structured body.
func TestV1SeedValidation(t *testing.T) {
	ts := httptest.NewServer(New(Options{Run: countingRun(new(int64), false)}).Handler())
	defer ts.Close()

	for _, path := range []string{
		"/v1/scenarios?seed=banana",
		"/v1/scenarios?seed=9999999999999999999999",
		"/v1/scenarios?seed=1&seed=2",
		"/v1/scenarios?seed=1e3",
	} {
		code, body := postJSON(t, ts, path, "application/json", `{"role":"experiment","experiment":"fig13"}`)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, code)
			continue
		}
		e := decodeErr(t, body)
		if e.Code != CodeBadRequest || e.Message == "" || e.Legacy == "" {
			t.Errorf("%s: error envelope incomplete: %+v", path, e)
		}
	}
	// Repeated identical seed values are fine.
	if code, _ := postJSON(t, ts, "/v1/scenarios?seed=4&seed=4", "application/json", `{"role":"experiment","experiment":"fig6a"}`); code != http.StatusOK {
		t.Errorf("identical repeated seeds rejected: %d", code)
	}
}

// TestV1BadBodies: malformed payloads get structured 400s.
func TestV1BadBodies(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	cases := []struct {
		body string
		code string
	}{
		{``, CodeBadRequest},
		{`{`, CodeBadRequest},
		{`{"role":"channel","warp":9}`, CodeBadRequest}, // unknown field
		{`{"role":"channel"} trailing`, CodeBadRequest}, // trailing data
		{`{"role":"warp"}`, CodeInvalidScenario},        // invalid spec
		{`{"role":"channel","bits":7}`, CodeInvalidScenario},
		{`[]`, CodeBadRequest}, // empty array
		{`[{"role":"channel","bits":8},{"role":"warp"}]`, CodeInvalidScenario},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts, "/v1/scenarios", "application/json", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400 (%s)", tc.body, code, body)
			continue
		}
		if e := decodeErr(t, body); e.Code != tc.code {
			t.Errorf("%q: code %q, want %q (%s)", tc.body, e.Code, tc.code, e.Message)
		}
	}
	// An invalid array item names its index.
	_, body := postJSON(t, ts, "/v1/scenarios", "application/json", `[{"role":"channel","bits":8},{"role":"warp"}]`)
	if e := decodeErr(t, body); !strings.Contains(e.Message, "scenarios[1]") {
		t.Errorf("array error does not name the index: %s", e.Message)
	}
}

// TestV1SingleScenarioMatchesDirect: the HTTP layer returns byte-
// identical result JSON to a direct Go call for a fixed seed, and the
// second request is served from cache.
func TestV1SingleScenarioMatchesDirect(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	spec := `{"role":"channel","kind":"cores","bits":16,"seed":42}`
	code, body := postJSON(t, ts, "/v1/scenarios", "application/json", spec)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp scenarioResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached || resp.Result == nil {
		t.Fatalf("first response: cached=%v result=%v", resp.Cached, resp.Result)
	}

	var s scenario.Scenario
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		t.Fatal(err)
	}
	direct, err := scenario.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	got, _ := json.Marshal(resp.Result)
	if string(want) != string(got) {
		t.Errorf("served result differs from direct scenario.Run:\n%s\n%s", want, got)
	}
	if resp.Hash != s.Hash() || resp.Seed != 42 {
		t.Errorf("envelope hash/seed wrong: %s/%d", resp.Hash, resp.Seed)
	}

	code, body = postJSON(t, ts, "/v1/scenarios", "application/json", spec)
	if code != http.StatusOK {
		t.Fatalf("second run: status %d", code)
	}
	var second scenarioResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical request not served from cache")
	}
	got2, _ := json.Marshal(second.Result)
	if string(got2) != string(got) {
		t.Error("cached result differs from the computed one")
	}
}

// TestV1BatchNDJSON: an array gets an ordered NDJSON stream; duplicate
// specs coalesce into one computation; the single-spec cache is shared.
func TestV1BatchNDJSON(t *testing.T) {
	var calls int64
	ts := httptest.NewServer(New(Options{Run: countingRun(&calls, false)}).Handler())
	defer ts.Close()

	batch := `[
	  {"role":"experiment","experiment":"fig6a","seed":3},
	  {"role":"experiment","experiment":"fig6b","seed":3},
	  {"role":"experiment","experiment":"fig6a","seed":3}
	]`
	code, body := postJSON(t, ts, "/v1/scenarios", "application/json", batch)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("NDJSON lines: %d, want 3", len(lines))
	}
	var parsed []scenarioLine
	for i, ln := range lines {
		var l scenarioLine
		if err := json.Unmarshal([]byte(ln), &l); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if l.Index != i {
			t.Errorf("line %d has index %d (stream out of order)", i, l.Index)
		}
		if l.Error != nil || l.Result == nil {
			t.Errorf("line %d: err=%v result=%v", i, l.Error, l.Result)
		}
		parsed = append(parsed, l)
	}
	if calls != 2 {
		t.Errorf("3 batch items (1 duplicate) ran the experiment %d times, want 2", calls)
	}
	a, _ := json.Marshal(parsed[0].Result)
	c, _ := json.Marshal(parsed[2].Result)
	if string(a) != string(c) {
		t.Error("duplicate batch items returned different results")
	}

	// A follow-up single POST of the same spec hits the shared cache.
	code, body = postJSON(t, ts, "/v1/scenarios", "application/json", `{"role":"experiment","experiment":"fig6a","seed":3}`)
	if code != http.StatusOK {
		t.Fatalf("single after batch: status %d", code)
	}
	var single scenarioResponse
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	if !single.Cached || calls != 2 {
		t.Errorf("single request after batch recomputed (cached=%v calls=%d)", single.Cached, calls)
	}
}

// TestV1BatchSeedDerivation: items without a pinned seed derive from
// the ?seed= base and match the engine's derivation.
func TestV1BatchSeedDerivation(t *testing.T) {
	var calls int64
	ts := httptest.NewServer(New(Options{Run: countingRun(&calls, false)}).Handler())
	defer ts.Close()

	batch := `[{"role":"experiment","experiment":"fig6a"},{"role":"experiment","experiment":"fig6b"}]`
	_, body := postJSON(t, ts, "/v1/scenarios?seed=9", "application/json", batch)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON lines: %d (%s)", len(lines), body)
	}
	for i, id := range []string{"fig6a", "fig6b"} {
		var l scenarioLine
		if err := json.Unmarshal([]byte(lines[i]), &l); err != nil {
			t.Fatal(err)
		}
		// Seeds must match the engine derivation for the same spec.
		want := engineDerive(9, id)
		if l.Seed != want {
			t.Errorf("%s: seed %d, want derived %d", id, l.Seed, want)
		}
	}
}

func engineDerive(base int64, id string) int64 {
	return engine.DeriveScenarioSeed(base, scenario.FromExperiment(id))
}

// TestV1RunFailure: a failing scenario yields a structured 500 (single)
// or an in-stream error line (batch), and failures are cached.
func TestV1RunFailure(t *testing.T) {
	var calls int64
	ts := httptest.NewServer(New(Options{Run: countingRun(&calls, true)}).Handler())
	defer ts.Close()

	spec := `{"role":"experiment","experiment":"fig6a","seed":5}`
	code, body := postJSON(t, ts, "/v1/scenarios", "application/json", spec)
	if code != http.StatusInternalServerError || decodeErr(t, body).Code != CodeRunFailed {
		t.Errorf("failing single: status %d body %s", code, body)
	}
	if code, _ := postJSON(t, ts, "/v1/scenarios", "application/json", spec); code != http.StatusInternalServerError {
		t.Error("cached failure lost")
	}
	if calls != 1 {
		t.Errorf("failing scenario ran %d times, want 1 (errors are cached)", calls)
	}

	// Batch: the stream stays 200, the failing line carries the error.
	code, body = postJSON(t, ts, "/v1/scenarios", "application/json", `[`+spec+`]`)
	if code != http.StatusOK {
		t.Fatalf("batch with failing item: status %d", code)
	}
	var l scenarioLine
	if err := json.Unmarshal(bytes.TrimSpace(body), &l); err != nil {
		t.Fatal(err)
	}
	if l.Error == nil || l.Error.Code != CodeRunFailed || l.Result != nil {
		t.Errorf("failing batch line: %+v", l)
	}
}

// TestV1PanicIsolation: a panicking runner produces a 500 and leaves
// the server usable — through the scenario route.
func TestV1PanicIsolation(t *testing.T) {
	ts := httptest.NewServer(New(Options{Run: func(id string, seed int64) (*exp.Report, error) {
		panic("boom")
	}}).Handler())
	defer ts.Close()
	code, _ := postJSON(t, ts, "/v1/scenarios", "application/json", `{"role":"experiment","experiment":"fig6a"}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d", code)
	}
	if code, _ := get(t, ts, "/v1/experiments"); code != http.StatusOK {
		t.Error("server unusable after a panicking runner")
	}
}

// TestV1RealScenarioRoles runs a real (fast) non-experiment scenario
// through HTTP end to end.
func TestV1RealScenarioRoles(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	code, body := postJSON(t, ts, "/v1/scenarios", "application/json",
		`{"role":"spy","kind":"smt","bits":8,"seed":2}`)
	if code != http.StatusOK {
		t.Fatalf("spy scenario: status %d: %s", code, body)
	}
	var resp scenarioResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.Role != scenario.RoleSpy || len(resp.Result.SentBits) != 8 {
		t.Errorf("spy result wrong: %+v", resp.Result)
	}
	if _, ok := resp.Result.Extra["accuracy"]; !ok {
		t.Error("spy accuracy missing")
	}
}

// TestCanceledClientDoesNotPoisonCache: a request whose context is
// already canceled must not plant a context error in the shared cache —
// later healthy clients get the real result.
func TestCanceledClientDoesNotPoisonCache(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	spec := `{"role":"experiment","experiment":"fig13","seed":9}`

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/scenarios", strings.NewReader(spec)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	req2 := httptest.NewRequest(http.MethodPost, "/v1/scenarios", strings.NewReader(spec))
	req2.Header.Set("Content-Type", "application/json")
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusOK {
		t.Fatalf("healthy request after canceled one: status %d body %s", rec2.Code, rec2.Body.Bytes())
	}
	var resp scenarioResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Result.Report == nil {
		t.Error("cached entry carries no result after a canceled first client")
	}
}

// TestV1QuerySeedBounds: a query seed no valid spec could express is
// rejected, and ?seed=0 means "default" like the spec field.
func TestV1QuerySeedBounds(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	code, body := postJSON(t, ts, "/v1/scenarios?seed=-5", "application/json", `{"role":"experiment","experiment":"fig13"}`)
	if code != http.StatusBadRequest || decodeErr(t, body).Code != CodeBadRequest {
		t.Errorf("negative query seed: status %d body %s", code, body)
	}
	code, body = postJSON(t, ts, "/v1/scenarios?seed=0", "application/json", `{"role":"experiment","experiment":"fig13"}`)
	if code != http.StatusOK {
		t.Fatalf("?seed=0: status %d", code)
	}
	var resp scenarioResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seed != scenario.DefaultSeed {
		t.Errorf("?seed=0 ran with seed %d, want the default %d", resp.Seed, scenario.DefaultSeed)
	}
}

// TestNameIsPerRequestNotCached: the cache keys on a Name-excluding
// hash, so the requester's label must come from the envelope, never
// from the shared cached result.
func TestNameIsPerRequestNotCached(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	run := func(name string) scenarioResponse {
		code, body := postJSON(t, ts, "/v1/scenarios", "application/json",
			fmt.Sprintf(`{"name":%q,"role":"experiment","experiment":"fig13","seed":4}`, name))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, code, body)
		}
		var resp scenarioResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	alice := run("alice")
	bob := run("bob")
	if !bob.Cached {
		t.Error("name must not fragment the cache: bob's request should hit alice's entry")
	}
	if alice.Name != "alice" || bob.Name != "bob" {
		t.Errorf("envelope names wrong: %q / %q", alice.Name, bob.Name)
	}
	a, _ := json.Marshal(alice.Result)
	b, _ := json.Marshal(bob.Result)
	if string(a) != string(b) {
		t.Error("shared cached results differ")
	}
	if strings.Contains(string(b), "alice") {
		t.Error("cached result leaks the first requester's label")
	}
}
