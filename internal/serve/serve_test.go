package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ichannels/internal/exp"
)

// countingRun wraps a fake runner and counts executions per (id, seed).
func countingRun(calls *int64, fail bool) func(string, int64) (*exp.Report, error) {
	return func(id string, seed int64) (*exp.Report, error) {
		atomic.AddInt64(calls, 1)
		if fail {
			return nil, errors.New("synthetic failure")
		}
		rep := exp.NewReport(id, "served")
		rep.Metric("seed", float64(seed))
		rep.Table("t", "a", "b").AddRow("1", "2")
		return rep, nil
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func post(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// expSpec is the experiment-role scenario for (id, seed) — the one way
// a registered experiment runs over HTTP.
func expSpec(id string, seed int64) string {
	return fmt.Sprintf(`{"role":"experiment","experiment":%q,"seed":%d}`, id, seed)
}

// runExp posts one experiment-role scenario to /v1/scenarios.
func runExp(t *testing.T, ts *httptest.Server, id string, seed int64) (int, []byte) {
	t.Helper()
	return postJSON(t, ts, "/v1/scenarios", "application/json", expSpec(id, seed))
}

// decodeScenario unmarshals a single-scenario response.
func decodeScenario(t *testing.T, body []byte) scenarioResponse {
	t.Helper()
	var resp scenarioResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("response not JSON: %v: %s", err, body)
	}
	return resp
}

func TestListExperiments(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	code, body := get(t, ts, "/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var list []exp.Experiment
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(exp.IDs()) {
		t.Fatalf("listed %d experiments, registry has %d", len(list), len(exp.IDs()))
	}
	for _, e := range list {
		if e.ID == "" || e.Desc == "" || e.Section == "" {
			t.Errorf("incomplete listing entry: %+v", e)
		}
	}
}

func TestRunAndCacheHit(t *testing.T) {
	var calls int64
	srv := New(Options{Run: countingRun(&calls, false)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := runExp(t, ts, "fig6a", 7)
	if code != http.StatusOK {
		t.Fatalf("first run: status %d: %s", code, body)
	}
	first := decodeScenario(t, body)
	if first.Cached || first.Seed != 7 || first.Result == nil || first.Result.Experiment != "fig6a" {
		t.Fatalf("first response: %+v", first)
	}
	if first.Result.Report == nil || first.Result.Report.Metrics["seed"] != 7 {
		t.Fatalf("report missing or wrong seed: %+v", first.Result.Report)
	}

	code, body2 := runExp(t, ts, "fig6a", 7)
	if code != http.StatusOK {
		t.Fatalf("second run: status %d", code)
	}
	second := decodeScenario(t, body2)
	if !second.Cached {
		t.Error("second identical request not served from cache")
	}
	if calls != 1 {
		t.Errorf("runner executed %d times, want 1", calls)
	}
	// The deterministic payload must be byte-identical across the two.
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if string(a) != string(b) {
		t.Error("cached result differs from the computed one")
	}

	// A different seed is a different key.
	if code, _ := runExp(t, ts, "fig6a", 8); code != http.StatusOK {
		t.Fatalf("seed 8: status %d", code)
	}
	if calls != 2 {
		t.Errorf("distinct seed did not recompute (calls=%d)", calls)
	}
	if hits, misses := srv.CacheStats(); hits != 1 || misses != 2 {
		t.Errorf("cache stats hits=%d misses=%d, want 1/2", hits, misses)
	}
}

func TestConcurrentRequestsCoalesce(t *testing.T) {
	var calls int64
	srv := New(Options{Run: countingRun(&calls, false)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 16
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(expSpec("fig13", 3)))
			if err == nil {
				codes[i] = resp.StatusCode
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("request %d: status %d", i, c)
		}
	}
	if calls != 1 {
		t.Errorf("%d concurrent identical requests ran the experiment %d times, want 1", n, calls)
	}
}

// TestMaxConcurrentBoundsDistinctSeeds: MaxConcurrent caps running
// simulations whether the load is ten concurrent single requests or
// one ten-item batch on the engine stream — and both reach the cap, so
// neither runs serially.
func TestMaxConcurrentBoundsDistinctSeeds(t *testing.T) {
	singles := func(t *testing.T, ts *httptest.Server) {
		var wg sync.WaitGroup
		for i := 1; i <= 10; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				resp, err := ts.Client().Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(expSpec("fig6a", seed)))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(int64(i))
		}
		wg.Wait()
	}
	batch := func(t *testing.T, ts *httptest.Server) {
		items := make([]string, 10)
		for i := range items {
			items[i] = expSpec("fig6a", int64(i+1))
		}
		code, body := postJSON(t, ts, "/v1/scenarios", "application/json", "["+strings.Join(items, ",")+"]")
		if code != http.StatusOK {
			t.Fatalf("batch: status %d: %s", code, body)
		}
		if n := strings.Count(string(body), "\n"); n != len(items) {
			t.Fatalf("batch streamed %d lines, want %d", n, len(items))
		}
	}
	for _, tc := range []struct {
		name string
		load func(*testing.T, *httptest.Server)
	}{{"singles", singles}, {"batch", batch}} {
		t.Run(tc.name, func(t *testing.T) {
			var cur, peak int64
			slow := func(id string, seed int64) (*exp.Report, error) {
				n := atomic.AddInt64(&cur, 1)
				for {
					old := atomic.LoadInt64(&peak)
					if n <= old || atomic.CompareAndSwapInt64(&peak, old, n) {
						break
					}
				}
				time.Sleep(20 * time.Millisecond)
				atomic.AddInt64(&cur, -1)
				return exp.NewReport(id, "slow"), nil
			}
			ts := httptest.NewServer(New(Options{Run: slow, MaxConcurrent: 2}).Handler())
			defer ts.Close()
			tc.load(t, ts)
			if peak > 2 {
				t.Errorf("peak concurrent simulations %d exceeds MaxConcurrent=2", peak)
			}
			if peak < 2 {
				t.Errorf("distinct-seed simulations never overlapped (peak %d)", peak)
			}
		})
	}
}

func TestCacheEviction(t *testing.T) {
	var calls int64
	srv := New(Options{Run: countingRun(&calls, false), MaxCacheEntries: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	runExp(t, ts, "fig6a", 1) // cache: {1}
	runExp(t, ts, "fig6a", 2) // cache: {1, 2}
	runExp(t, ts, "fig6a", 3) // evicts 1 → {2, 3}
	if calls != 3 {
		t.Fatalf("3 distinct seeds ran %d times", calls)
	}
	if _, body := runExp(t, ts, "fig6a", 3); calls != 3 {
		t.Errorf("seed 3 should be cached: %s", body)
	}
	runExp(t, ts, "fig6a", 1) // evicted → recompute
	if calls != 4 {
		t.Errorf("evicted seed 1 not recomputed (calls=%d)", calls)
	}

	// Negative MaxCacheEntries disables caching entirely.
	var calls2 int64
	srv2 := New(Options{Run: countingRun(&calls2, false), MaxCacheEntries: -1})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	runExp(t, ts2, "fig6a", 1)
	runExp(t, ts2, "fig6a", 1)
	if calls2 != 2 {
		t.Errorf("caching disabled but runner ran %d times for 2 requests", calls2)
	}
}

// TestEvictionAllocsFlat: evicting from a full cache removes the key
// from the recency order in place, so one evicting entry() call costs
// the same allocations at any MaxCacheEntries.
func TestEvictionAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		srv := New(Options{MaxCacheEntries: n})
		for i := 0; i < n; i++ {
			ent, _ := srv.entry(cacheKey{Hash: "h", Seed: int64(i)})
			ent.finished.Store(true) // completed entries are evictable
		}
		seed := int64(n)
		return testing.AllocsPerRun(200, func() {
			ent, _ := srv.entry(cacheKey{Hash: "h", Seed: seed})
			ent.finished.Store(true)
			seed++
		})
	}
	small, large := allocs(16), allocs(1024)
	if large > small {
		t.Errorf("an evicting entry() allocates %v times at 1024 entries, %v at 16: eviction cost grows with the cache", large, small)
	}
}

func TestErrorPaths(t *testing.T) {
	var calls int64
	srv := New(Options{Run: countingRun(&calls, true)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := runExp(t, ts, "doesnotexist", 1)
	if code != http.StatusBadRequest || decodeErr(t, body).Code != CodeInvalidScenario {
		t.Errorf("unknown experiment: status %d body %s, want 400 %s", code, body, CodeInvalidScenario)
	}
	if code, _ := postJSON(t, ts, "/v1/scenarios?seed=banana", "application/json", `{"role":"experiment","experiment":"fig6a"}`); code != http.StatusBadRequest {
		t.Errorf("bad seed: status %d, want 400", code)
	}
	code, body = runExp(t, ts, "fig6a", 1)
	if code != http.StatusInternalServerError {
		t.Errorf("failing runner: status %d, want 500", code)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Errorf("error body not JSON: %s", body)
	}
	// Failures are cached too: a retry must not rerun the experiment.
	if code, _ := runExp(t, ts, "fig6a", 1); code != http.StatusInternalServerError {
		t.Error("cached failure lost")
	}
	if calls != 1 {
		t.Errorf("failing experiment ran %d times, want 1 (errors are cached)", calls)
	}
	// Wrong method on a valid route.
	if code, _ := get(t, ts, "/v1/scenarios"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/scenarios: status %d, want 405", code)
	}
}

// TestPanickingRunnerIsIsolated: a panicking experiment inside a batch
// becomes that item's error line; its siblings still succeed and the
// server keeps answering.
func TestPanickingRunnerIsIsolated(t *testing.T) {
	srv := New(Options{Run: func(id string, seed int64) (*exp.Report, error) {
		if id == "fig6a" {
			panic("boom")
		}
		return exp.NewReport(id, "ok"), nil
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body := postJSON(t, ts, "/v1/scenarios", "application/json", "["+expSpec("fig6a", 1)+","+expSpec("fig6b", 1)+"]")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON lines: %d, want 2 (%s)", len(lines), body)
	}
	var bad, good scenarioLine
	if err := json.Unmarshal([]byte(lines[0]), &bad); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &good); err != nil {
		t.Fatal(err)
	}
	if bad.Error == nil || !strings.Contains(bad.Error.Message, "panicked") {
		t.Errorf("panic not converted to an error line: %+v", bad)
	}
	if good.Error != nil || good.Result == nil {
		t.Errorf("healthy sibling affected by the panicking one: %+v", good)
	}
	// The server must still answer subsequent requests.
	if code, _ := get(t, ts, "/v1/experiments"); code != http.StatusOK {
		t.Error("server unusable after a panicking runner")
	}
}

// TestRealExperimentRoundTrip runs one real (fast) experiment end to end
// through the HTTP layer and checks the report against a direct run.
func TestRealExperimentRoundTrip(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	code, body := runExp(t, ts, "fig13", 42)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	resp := decodeScenario(t, body)
	direct, err := exp.Run("fig13", 42)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	got, _ := json.Marshal(resp.Result.Report)
	if string(want) != string(got) {
		t.Error("served report differs from a direct exp.Run with the same seed")
	}
}
