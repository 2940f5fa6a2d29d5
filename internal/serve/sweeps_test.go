package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"ichannels/internal/scenario"
	"ichannels/internal/sweep"
)

// testSweepSpec is a 2×2 channel grid (processor × bits), cheap enough
// to run for real.
const testSweepSpec = `{
  "name": "serve-test",
  "base": {"role": "channel", "kind": "cores"},
  "axes": {"processor": ["Cannon Lake", "Haswell"], "bits": [4, 8]},
  "group_by": ["processor"]
}`

// postBody POSTs a JSON body and returns status + raw response.
func postBody(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// parseSweepStream splits an NDJSON sweep response into cell lines and
// the trailing aggregate line.
func parseSweepStream(t *testing.T, body []byte) (cells []sweepLine, aggregate []byte) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte{}, sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("sweep stream has %d lines, want cells + aggregate:\n%s", len(lines), body)
	}
	for _, ln := range lines[:len(lines)-1] {
		var cell sweepLine
		if err := json.Unmarshal(ln, &cell); err != nil {
			t.Fatalf("cell line %s: %v", ln, err)
		}
		cells = append(cells, cell)
	}
	last := lines[len(lines)-1]
	if !bytes.Contains(last, []byte(`"aggregate"`)) {
		t.Fatalf("last line is not the aggregate envelope: %s", last)
	}
	return cells, last
}

// TestV1SweepSchema: the sweep schema is served and embeds the
// scenario schema.
func TestV1SweepSchema(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	code, body := get(t, ts, "/v1/sweeps/schema")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["title"] != "Sweep" {
		t.Errorf("schema title %v", doc["title"])
	}
	if code, _ := post(t, ts, "/v1/sweeps/schema"); code != http.StatusMethodNotAllowed {
		t.Errorf("POST schema: status %d, want 405", code)
	}
}

// TestV1SweepStreamAndAggregate is the acceptance check for the wire:
// the grid streams one line per cell in expansion order, the final line
// carries the aggregate, and that aggregate is byte-identical to the
// one sweep.Run (the CLI path) computes for the same spec and seed.
func TestV1SweepStreamAndAggregate(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	code, body := postBody(t, ts, "/v1/sweeps?seed=11", testSweepSpec)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	cells, aggLine := parseSweepStream(t, body)
	if len(cells) != 4 {
		t.Fatalf("streamed %d cells, want 4", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d (order not preserved)", i, c.Index)
		}
		if c.Error != nil || c.Result == nil {
			t.Errorf("cell %d: error %v", i, c.Error)
		}
		if c.Axes[scenario.AxisProcessor] == "" || c.Axes[scenario.AxisBits] == "" {
			t.Errorf("cell %d missing axis labels: %v", i, c.Axes)
		}
	}

	sw, err := scenario.ParseSweep([]byte(testSweepSpec))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sweep.Run(context.Background(), sw, sweep.Options{BaseSeed: 11, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wantAgg bytes.Buffer
	if err := sweep.WriteAggregateLine(&wantAgg, direct.Aggregate); err != nil {
		t.Fatal(err)
	}
	if got, want := string(aggLine)+"\n", wantAgg.String(); got != want {
		t.Errorf("HTTP aggregate differs from the direct run:\nhttp: %s\ndirect: %s", got, want)
	}
	// Per-cell results must match the direct path bytes too.
	for i, c := range cells {
		if c.Seed != direct.Cells[i].Seed || c.Hash != direct.Cells[i].Hash {
			t.Errorf("cell %d identity differs: http (%s, %d) direct (%s, %d)",
				i, c.Hash, c.Seed, direct.Cells[i].Hash, direct.Cells[i].Seed)
		}
	}
}

// TestV1SweepCacheSharing: re-posting a sweep serves every cell from
// the cache, and the cells share the cache with POST /v1/scenarios.
func TestV1SweepCacheSharing(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	_, first := postBody(t, ts, "/v1/sweeps?seed=3", testSweepSpec)
	firstCells, _ := parseSweepStream(t, first)
	for i, c := range firstCells {
		if c.Cached {
			t.Errorf("first pass cell %d already cached", i)
		}
	}
	_, second := postBody(t, ts, "/v1/sweeps?seed=3", testSweepSpec)
	secondCells, _ := parseSweepStream(t, second)
	for i, c := range secondCells {
		if !c.Cached {
			t.Errorf("second pass cell %d not served from cache", i)
		}
		if c.Result == nil || c.Seed != firstCells[i].Seed {
			t.Errorf("second pass cell %d differs", i)
		}
	}

	// A single-scenario request for one cell's spec+seed hits the same
	// cache entry.
	spec, _ := json.Marshal(map[string]any{
		"role": "channel", "kind": "cores", "processor": "Cannon Lake",
		"bits": 4, "seed": firstCells[0].Seed,
	})
	code, body := postBody(t, ts, "/v1/scenarios", string(spec))
	if code != http.StatusOK {
		t.Fatalf("scenario request: %d: %s", code, body)
	}
	var resp scenarioResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("scenario request did not hit the sweep's cache entry")
	}
}

// TestV1SweepBadRequests: malformed specs, invalid sweeps, and protocol
// violations map to the structured error envelope.
func TestV1SweepBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	cases := []struct {
		name     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"not json", "nope", http.StatusBadRequest, CodeBadRequest},
		{"array", "[]", http.StatusBadRequest, CodeBadRequest},
		{"unknown field", `{"base":{"role":"channel"},"axes":{"bits":[4]},"bogus":1}`, http.StatusBadRequest, CodeBadRequest},
		{"no axes", `{"base":{"role":"channel","bits":4},"axes":{}}`, http.StatusBadRequest, CodeInvalidSweep},
		{"invalid cell", `{"base":{"role":"channel"},"axes":{"kind":["cores","warp"],"bits":[4]}}`, http.StatusBadRequest, CodeInvalidSweep},
		{"over cap", `{"base":{"role":"channel","kind":"cores"},"axes":{"bits":[4,8]},"max_cells":70000}`, http.StatusBadRequest, CodeInvalidSweep},
	}
	for _, tc := range cases {
		code, body := postBody(t, ts, "/v1/sweeps", tc.body)
		if code != tc.wantCode {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.wantCode, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Code != tc.wantErr {
			t.Errorf("%s: error envelope %s, want code %s", tc.name, body, tc.wantErr)
		}
	}
	// A valid sweep above the per-request cell limit is rejected even
	// though its own max_cells admits it (8192 cells: 4096 even bits
	// values × 2 processors).
	var bits []string
	for b := 2; b <= 8192; b += 2 {
		bits = append(bits, strconv.Itoa(b))
	}
	big := `{"base":{"role":"channel","kind":"cores"},` +
		`"axes":{"processor":["Cannon Lake","Haswell"],"bits":[` + strings.Join(bits, ",") + `]},` +
		`"max_cells":65536}`
	if code, body := postBody(t, ts, "/v1/sweeps", big); code != http.StatusBadRequest {
		t.Errorf("over-limit sweep: status %d: %.200s", code, body)
	} else if !strings.Contains(string(body), "per-request limit") {
		t.Errorf("over-limit sweep error: %.200s", body)
	}

	if code, _ := get(t, ts, "/v1/sweeps"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweeps: status %d, want 405", code)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "text/plain", strings.NewReader(testSweepSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("text/plain: status %d, want 415", resp.StatusCode)
	}
	code, body := postBody(t, ts, "/v1/sweeps?seed=-4", testSweepSpec)
	if code != http.StatusBadRequest {
		t.Errorf("negative seed: status %d: %s", code, body)
	}
}

// TestLRUEvictionKeepsHotEntries: a cache hit refreshes recency, so the
// working set of a long session survives while untouched entries age
// out — the LRU upgrade over PR 1's FIFO.
func TestLRUEvictionKeepsHotEntries(t *testing.T) {
	var calls int64
	srv := New(Options{Run: countingRun(&calls, false), MaxCacheEntries: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	runExp(t, ts, "fig6a", 1) // miss → {1}
	runExp(t, ts, "fig6a", 2) // miss → {1, 2}
	runExp(t, ts, "fig6a", 1) // hit: 1 becomes most recent → {2, 1}
	if calls != 2 {
		t.Fatalf("setup ran %d computations, want 2", calls)
	}
	runExp(t, ts, "fig6a", 3) // full: evict LRU = 2 → {1, 3}
	runExp(t, ts, "fig6a", 1) // must still be resident
	if calls != 3 {
		t.Errorf("hot entry was evicted (calls=%d, want 3: seeds 1, 2, 3 computed once each)", calls)
	}
	runExp(t, ts, "fig6a", 2) // was evicted → recompute
	if calls != 4 {
		t.Errorf("cold entry not evicted (calls=%d, want 4)", calls)
	}
}

// TestElapsedUSIsEntryCost: elapsed_us means the same thing on every
// route — the resolved entry's compute (or store-read) cost, never the
// wall time a request spent waiting for it. Posting the same request
// twice, every cached line of the second response must repeat the
// first response's elapsed_us for that cell.
func TestElapsedUSIsEntryCost(t *testing.T) {
	refined, err := os.ReadFile("../../examples/sweeps/specs/fig14_noise_refined.json")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, path, body string }{
		{"single", "/v1/scenarios", `{"role":"channel","kind":"cores","bits":8,"seed":3}`},
		{"batch", "/v1/scenarios?seed=5", `[{"role":"channel","kind":"cores","bits":8},
			{"role":"channel","kind":"smt","bits":8},{"role":"channel","kind":"cores","bits":8}]`},
		{"dense sweep", "/v1/sweeps?seed=7", testSweepSpec},
		{"refined sweep", "/v1/sweeps?seed=1", string(refined)},
	}
	type cellKey struct {
		Hash string
		Seed int64
	}
	// cellCosts decodes a response — one JSON object or an NDJSON
	// stream with pass markers and an aggregate — into its cell lines.
	cellCosts := func(t *testing.T, body []byte) (costs map[cellKey]float64, cached []bool) {
		t.Helper()
		costs = map[cellKey]float64{}
		dec := json.NewDecoder(bytes.NewReader(body))
		for dec.More() {
			var l struct {
				Hash      string  `json:"hash"`
				Seed      int64   `json:"seed"`
				Cached    bool    `json:"cached"`
				ElapsedUS float64 `json:"elapsed_us"`
			}
			if err := dec.Decode(&l); err != nil {
				t.Fatalf("decoding %s: %v", body, err)
			}
			if l.Hash == "" {
				continue // pass marker or aggregate envelope
			}
			costs[cellKey{l.Hash, l.Seed}] = l.ElapsedUS
			cached = append(cached, l.Cached)
		}
		if len(cached) == 0 {
			t.Fatalf("no cell lines in %s", body)
		}
		return costs, cached
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(New(Options{}).Handler())
			defer ts.Close()
			code, first := postBody(t, ts, tc.path, tc.body)
			if code != http.StatusOK {
				t.Fatalf("first post: status %d: %s", code, first)
			}
			code, second := postBody(t, ts, tc.path, tc.body)
			if code != http.StatusOK {
				t.Fatalf("second post: status %d: %s", code, second)
			}
			want, _ := cellCosts(t, first)
			got, cached := cellCosts(t, second)
			for i, c := range cached {
				if !c {
					t.Errorf("second post: cell line %d not cached", i)
				}
			}
			for k, us := range got {
				if w, ok := want[k]; !ok || us != w {
					t.Errorf("cell %s-%d: cached elapsed_us %v, first post reported %v", k.Hash, k.Seed, us, w)
				}
			}
		})
	}
}
