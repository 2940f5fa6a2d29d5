package ichannels_test

// Engine and serve layer benchmarks: the cost the stream and the HTTP
// server add around a cell, with the simulator taken out. The stream
// benchmark runs a runner that returns a fixed result; the serve
// benchmarks repeat requests the server already holds in its memory
// cache, so ns/op and allocs/op are dispatch, ordering, cache lookup
// and JSON framing, never a simulation.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ichannels"
	"ichannels/internal/engine"
)

// noopStreamCells is the cell count BenchmarkStreamNoopRunner pulls
// through the stream per iteration.
const noopStreamCells = 64

// BenchmarkStreamNoopRunner measures the engine stream alone: 64
// distinct cells (validate, hash, seed derivation, dispatch, reorder
// and emit) through a runner that returns one fixed result.
func BenchmarkStreamNoopRunner(b *testing.B) {
	fixed := &ichannels.ScenarioResult{Role: "channel", Bits: 8}
	runner := engine.ScenarioRunFunc(func(context.Context, ichannels.Scenario, string, int64) (*ichannels.ScenarioResult, error) {
		return fixed, nil
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		stats, err := ichannels.StreamScenarios(context.Background(), ichannels.ScenarioStreamOptions{
			Next: func() (ichannels.Scenario, bool) {
				if n == noopStreamCells {
					return ichannels.Scenario{}, false
				}
				n++
				return ichannels.Scenario{Role: "channel", Kind: "cores", Bits: 2 * n}, true
			},
			BaseSeed: 1, Parallel: 4, Runner: runner,
		})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Emitted != noopStreamCells || stats.Failed != 0 {
			b.Fatalf("stream stats %+v", stats)
		}
	}
}

// benchServePost returns a function that POSTs body to /v1/scenarios
// on a fresh server's handler and checks for a 200. The first call
// (made here, outside the timer) fills the cache.
func benchServePost(b *testing.B, body string) func() *httptest.ResponseRecorder {
	b.Helper()
	h := ichannels.NewAPIServer(ichannels.ServerOptions{}).Handler()
	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/scenarios", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	post()
	return post
}

// BenchmarkServeCacheHit measures one hot single-scenario request:
// routing, spec parsing and hashing, the cache lookup and the JSON
// response.
func BenchmarkServeCacheHit(b *testing.B) {
	post := benchServePost(b, `{"role":"channel","kind":"cores","bits":8,"seed":3}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkServeBatchHit measures one hot 16-scenario array request
// (the batch16Specs mix): the batch route's engine stream over cached
// cells and its NDJSON lines.
func BenchmarkServeBatchHit(b *testing.B) {
	body, err := json.Marshal(batch16Specs())
	if err != nil {
		b.Fatal(err)
	}
	post := benchServePost(b, string(body))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(); strings.Count(rec.Body.String(), "\n") != 16 {
			b.Fatalf("want 16 NDJSON lines, got %s", rec.Body)
		}
	}
}
