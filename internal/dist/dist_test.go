package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ichannels/internal/dist"
	"ichannels/internal/engine"
	"ichannels/internal/scenario"
	"ichannels/internal/serve"
	"ichannels/internal/sweep"
)

// newWorker starts an in-process worker: the real serve handler with
// the cell endpoint enabled.
func newWorker(t testing.TB) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(serve.New(serve.Options{Worker: true}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func testSpecs() []scenario.Scenario {
	return []scenario.Scenario{
		{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8},
		{Role: scenario.RoleChannel, Kind: scenario.KindThread, Bits: 8},
		{Role: scenario.RoleChannel, Kind: scenario.KindSMT, Bits: 8},
		{Role: scenario.RoleSpy, Bits: 8},
	}
}

// resultBytes marshals each outcome's result (or error string) — the
// deterministic payload byte-identity is asserted on.
func resultBytes(t *testing.T, b *engine.ScenarioBatch) [][]byte {
	t.Helper()
	out := make([][]byte, len(b.Results))
	for i, r := range b.Results {
		if r.Err != nil {
			out[i] = []byte("error: " + r.Err.Error())
			continue
		}
		data, err := json.Marshal(r.Result)
		if err != nil {
			t.Fatalf("marshal result %d: %v", i, err)
		}
		out[i] = data
	}
	return out
}

func runBatch(t *testing.T, runner engine.CellRunner) *engine.ScenarioBatch {
	t.Helper()
	b, err := engine.RunScenarios(context.Background(), engine.ScenarioOptions{
		Scenarios: testSpecs(),
		BaseSeed:  7,
		Parallel:  2,
		Runner:    runner,
	})
	if err != nil {
		t.Fatalf("RunScenarios: %v", err)
	}
	return b
}

// TestPoolByteIdentity is the core distributed determinism check: a
// batch computed through a real worker endpoint yields byte-identical
// result payloads to a local run.
func TestPoolByteIdentity(t *testing.T) {
	w := newWorker(t)
	pool, err := dist.New([]string{w.URL}, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local := runBatch(t, nil)
	remote := runBatch(t, pool)
	wantLines, gotLines := resultBytes(t, local), resultBytes(t, remote)
	for i := range wantLines {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			t.Errorf("result %d differs:\nlocal:  %s\nremote: %s", i, wantLines[i], gotLines[i])
		}
		if local.Results[i].Seed != remote.Results[i].Seed {
			t.Errorf("result %d seed: local %d remote %d", i, local.Results[i].Seed, remote.Results[i].Seed)
		}
	}
	st := pool.Stats()
	if st.Dispatched != len(wantLines) {
		t.Errorf("Dispatched = %d, want %d", st.Dispatched, len(wantLines))
	}
	if st.Corrupt != 0 || st.Redispatched != 0 || st.LocalFallback != 0 {
		t.Errorf("unexpected failure counters: %+v", st)
	}
}

// byzantineProxy wraps a worker and flips bytes inside every result
// payload while keeping the recorded checksum — a worker serving
// corrupted results.
func byzantineProxy(t *testing.T, inner http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		// Mutate the result sub-object, not the envelope fields: the
		// checksum no longer matches the payload it vouches for.
		corrupted := bytes.Replace(body, []byte(`"role":`), []byte(`"rol3":`), 1)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(corrupted)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestPoolByzantineWorker: a worker flipping result bytes is rejected
// by envelope verification, its cells land on the honest worker, and
// the corruption is counted in the pool's own Stats.
func TestPoolByzantineWorker(t *testing.T) {
	honest := newWorker(t)
	evil := byzantineProxy(t, serve.New(serve.Options{Worker: true}).Handler())
	pool, err := dist.New([]string{evil.URL, honest.URL}, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}

	local := runBatch(t, nil)
	specs := testSpecs()
	i := 0
	var got []engine.ScenarioOutcome
	_, err = engine.StreamScenarios(context.Background(), engine.StreamOptions{
		Next: func() (scenario.Scenario, bool) {
			if i >= len(specs) {
				return scenario.Scenario{}, false
			}
			s := specs[i]
			i++
			return s, true
		},
		BaseSeed: 7,
		Parallel: 1, // serial: every cell tries the byzantine worker first
		Runner:   pool,
		Emit:     func(o engine.ScenarioOutcome) error { got = append(got, o); return nil },
	})
	if err != nil {
		t.Fatalf("StreamScenarios: %v", err)
	}
	wantLines := resultBytes(t, local)
	for i, o := range got {
		if o.Err != nil {
			t.Fatalf("outcome %d: %v", i, o.Err)
		}
		data, _ := json.Marshal(o.Result)
		if !bytes.Equal(data, wantLines[i]) {
			t.Errorf("outcome %d differs from local run:\nlocal:  %s\nremote: %s", i, wantLines[i], data)
		}
	}
	st := pool.Stats()
	if st.Corrupt == 0 {
		t.Errorf("Corrupt = 0, want > 0 (byzantine responses must be rejected): %+v", st)
	}
	if st.Redispatched < st.Corrupt {
		t.Errorf("Redispatched = %d < Corrupt = %d: corrupt cells must be retried", st.Redispatched, st.Corrupt)
	}
	if st.LocalFallback != 0 {
		t.Errorf("LocalFallback = %d, want 0 (the honest worker serves everything)", st.LocalFallback)
	}
}

// TestPoolDeadWorkerRedispatch: a worker killed mid-run costs its
// in-flight cells a redispatch to the surviving worker; the output is
// unchanged.
func TestPoolDeadWorkerRedispatch(t *testing.T) {
	live := newWorker(t)
	dead := httptest.NewServer(serve.New(serve.Options{Worker: true}).Handler())
	dead.Close() // connection refused from the first dispatch

	pool, err := dist.New([]string{dead.URL, live.URL}, dist.Options{
		BackoffBase: time.Minute, // stay quarantined for the whole test
	})
	if err != nil {
		t.Fatal(err)
	}
	local := runBatch(t, nil)
	remote := runBatch(t, pool)
	wantLines, gotLines := resultBytes(t, local), resultBytes(t, remote)
	for i := range wantLines {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			t.Errorf("result %d differs after worker death", i)
		}
	}
	st := pool.Stats()
	if st.Redispatched == 0 {
		t.Errorf("Redispatched = 0, want > 0: %+v", st)
	}
	if st.Dispatched != len(wantLines) {
		t.Errorf("Dispatched = %d, want %d (the live worker serves everything)", st.Dispatched, len(wantLines))
	}
}

// TestPoolFleetDeadFallsBackLocal: with every worker unreachable the
// pool degrades to local compute and the bytes still match.
func TestPoolFleetDeadFallsBackLocal(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	pool, err := dist.New([]string{dead.URL}, dist.Options{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	local := runBatch(t, nil)
	remote := runBatch(t, pool)
	wantLines, gotLines := resultBytes(t, local), resultBytes(t, remote)
	for i := range wantLines {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			t.Errorf("result %d differs under local fallback", i)
		}
	}
	st := pool.Stats()
	if st.LocalFallback != len(wantLines) {
		t.Errorf("LocalFallback = %d, want %d", st.LocalFallback, len(wantLines))
	}
	if st.Dispatched != 0 {
		t.Errorf("Dispatched = %d, want 0", st.Dispatched)
	}
}

// TestPoolRunFailedRecomputesLocally: a worker-reported deterministic
// run failure is recomputed locally (so error bytes match a serial
// run), without quarantining the healthy worker.
func TestPoolRunFailedRecomputesLocally(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"code":"run_failed","message":"scenario exploded"}`)
	}))
	t.Cleanup(srv.Close)

	var localRuns atomic.Int64
	wantErr := fmt.Errorf("deterministic local failure")
	pool, err := dist.New([]string{srv.URL}, dist.Options{
		Run: func(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
			localRuns.Add(1)
			return nil, wantErr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := testSpecs()[0].Normalized()
	_, err = pool.RunCell(context.Background(), s, s.Hash(), 1)
	if err != wantErr {
		t.Fatalf("RunCell error = %v, want the local executor's %v", err, wantErr)
	}
	if localRuns.Load() != 1 {
		t.Fatalf("local executor ran %d times, want 1", localRuns.Load())
	}
	st := pool.Stats()
	if st.LocalFallback != 1 || st.Redispatched != 0 {
		t.Fatalf("stats = %+v, want exactly one local fallback and no redispatch", st)
	}
}

// TestPoolStaleWorkerHashMismatch: a worker whose hashing disagrees
// answers 409; the coordinator treats it as a worker fault and the cell
// degrades (here: local fallback, with only one worker configured).
func TestPoolStaleWorkerHashMismatch(t *testing.T) {
	w := newWorker(t)
	pool, err := dist.New([]string{w.URL}, dist.Options{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := testSpecs()[0].Normalized()
	// Dispatch under a wrong hash — exactly what a version-skewed
	// coordinator would do. The worker must refuse to serve under the
	// disputed identity, and the pool must still produce the result.
	c, err := pool.RunCell(context.Background(), s, "0000000000000000", 1)
	if err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if c.Result == nil || c.Cached {
		t.Fatalf("RunCell = %+v, want a freshly computed result", c)
	}
	st := pool.Stats()
	if st.Dispatched != 0 || st.LocalFallback != 1 {
		t.Fatalf("stats = %+v, want the 409 rejected and the cell computed locally", st)
	}
}

// TestSweepDistributedByteIdentity runs a real sweep (expansion,
// aggregation) through the distributed runner and asserts the entire
// serialized result — cells and aggregate — is byte-identical to the
// local run's.
func TestSweepDistributedByteIdentity(t *testing.T) {
	sw := scenario.Sweep{
		Base: scenario.Scenario{Role: scenario.RoleChannel, Bits: 8},
		Axes: scenario.SweepAxes{Kind: []string{scenario.KindCores, scenario.KindThread, scenario.KindSMT}},
	}
	runSweep := func(runner engine.CellRunner) []byte {
		t.Helper()
		res, err := sweep.Run(context.Background(), sw, sweep.Options{
			BaseSeed: 11,
			Parallel: 2,
			Runner:   runner,
		})
		if err != nil {
			t.Fatalf("sweep.Run: %v", err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal sweep result: %v", err)
		}
		return data
	}
	local := runSweep(nil)

	w1, w2 := newWorker(t), newWorker(t)
	pool, err := dist.New([]string{w1.URL, w2.URL}, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote := runSweep(pool)
	if !bytes.Equal(local, remote) {
		t.Errorf("distributed sweep result differs from local:\nlocal:  %s\nremote: %s", local, remote)
	}
	if st := pool.Stats(); st.Dispatched == 0 {
		t.Errorf("Dispatched = 0, want > 0: %+v", st)
	}
}

// TestNewRejectsBadWorkers covers coordinator construction validation.
func TestNewRejectsBadWorkers(t *testing.T) {
	cases := [][]string{
		nil,
		{""},
		{"not-a-url"},
		{"ftp://host"},
		{"http://"},
		{"http://host/v1/cells"},
		{"http://host:1", "http://host:1"},
	}
	for _, ws := range cases {
		if _, err := dist.New(ws, dist.Options{}); err == nil {
			t.Errorf("New(%q) succeeded, want error", ws)
		}
	}
	if _, err := dist.New([]string{"http://host:1", "http://host:2/"}, dist.Options{}); err != nil {
		t.Errorf("New with valid workers failed: %v", err)
	}
}

// TestParseCellDispatchStrictness covers the wire decoding discipline.
func TestParseCellDispatchStrictness(t *testing.T) {
	s := testSpecs()[0].Normalized()
	d := dist.NewCellDispatch(s, s.Hash(), 42)
	frame, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dist.ParseCellDispatch(frame)
	if err != nil {
		t.Fatalf("ParseCellDispatch(round-trip): %v", err)
	}
	n, err := got.Validate()
	if err != nil {
		t.Fatalf("Validate(round-trip): %v", err)
	}
	// Fixed point: parse → validate → marshal is stable.
	got.Scenario = n
	again, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Errorf("dispatch encoding is not a fixed point:\n%s\n%s", frame, again)
	}

	bad := [][]byte{
		nil,
		[]byte("  "),
		[]byte(`{"v":1,"hash":"x","seed":1,"scenario":{},"extra":1}`),
		append(append([]byte{}, frame...), []byte(` {}`)...),
		[]byte(`[1,2]`),
	}
	for _, b := range bad {
		if _, err := dist.ParseCellDispatch(b); err == nil {
			t.Errorf("ParseCellDispatch(%q) succeeded, want error", b)
		}
	}

	wrongVersion := d
	wrongVersion.V = 99
	if _, err := wrongVersion.Validate(); err == nil || errors.Is(err, dist.ErrInvalidScenario) || errors.Is(err, dist.ErrHashMismatch) {
		t.Errorf("unknown wire version: err = %v, want a plain frame error", err)
	}
	wrongSeed := d
	wrongSeed.Seed = 0
	if _, err := wrongSeed.Validate(); err == nil || errors.Is(err, dist.ErrInvalidScenario) || errors.Is(err, dist.ErrHashMismatch) {
		t.Errorf("zero seed: err = %v, want a plain frame error", err)
	}
	badSpec := d
	badSpec.Scenario = scenario.Scenario{Role: "warp"}
	if _, err := badSpec.Validate(); !errors.Is(err, dist.ErrInvalidScenario) {
		t.Errorf("unrunnable scenario: err = %v, want ErrInvalidScenario", err)
	}
	wrongHash := d
	wrongHash.Hash = "deadbeef"
	if _, err := wrongHash.Validate(); !errors.Is(err, dist.ErrHashMismatch) {
		t.Errorf("mismatched hash: err = %v, want ErrHashMismatch", err)
	}
}
