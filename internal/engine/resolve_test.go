package engine_test

// The CellRunner seam and engine.Resolve, from outside the package: what
// a runner reports reaches the stream's and the sweep's outcomes
// unchanged, a store hit never calls the runner, and only successes are
// persisted.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ichannels/internal/engine"
	"ichannels/internal/scenario"
	"ichannels/internal/store"
	"ichannels/internal/sweep"
)

// reportingRunner answers every cell with one fixed CellResult shape,
// as a runner with its own cache (the server) would.
type reportingRunner struct{ cell engine.CellResult }

func (r reportingRunner) RunCell(_ context.Context, s scenario.Scenario, hash string, seed int64) (engine.CellResult, error) {
	c := r.cell
	c.Result = &scenario.Result{Role: s.Role, Hash: hash, Seed: seed, Bits: s.Bits}
	return c, nil
}

// TestRunnerCellResultReachesOutcomes: a runner's Cached flag and cost
// arrive in every ScenarioOutcome and every sweep.CellOutcome as the
// runner reported them — the stream adds no timing of its own.
func TestRunnerCellResultReachesOutcomes(t *testing.T) {
	const cost = 7 * time.Millisecond
	runner := reportingRunner{engine.CellResult{Cached: true, Elapsed: cost}}

	n := 0
	stats, err := engine.StreamScenarios(context.Background(), engine.StreamOptions{
		Next: func() (scenario.Scenario, bool) {
			if n == 4 {
				return scenario.Scenario{}, false
			}
			n++
			return scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 2 * n}, true
		},
		BaseSeed: 1, Parallel: 2, Runner: runner,
		Emit: func(o engine.ScenarioOutcome) error {
			if o.Err != nil || o.Result == nil || !o.Cached || o.Elapsed != cost {
				t.Errorf("stream outcome %s: result %v, err %v, cached %v, elapsed %v; want the runner's cached 7ms",
					o.Hash, o.Result, o.Err, o.Cached, o.Elapsed)
			}
			return nil
		},
	})
	if err != nil || stats.Emitted != 4 || stats.Cached != 4 {
		t.Fatalf("stream: %+v, %v; want 4 emitted, 4 cached", stats, err)
	}

	sw := scenario.Sweep{
		Base: scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores},
		Axes: scenario.SweepAxes{Bits: []int{8, 16}, Processor: []string{"Cannon Lake", "Haswell"}},
	}
	cells := 0
	res, err := sweep.Run(context.Background(), sw, sweep.Options{
		BaseSeed: 1, Parallel: 2, Runner: runner,
		OnCell: func(o sweep.CellOutcome) error {
			cells++
			if o.Err != nil || o.Result == nil || !o.Cached || o.Elapsed != cost {
				t.Errorf("sweep cell %d: result %v, err %v, cached %v, elapsed %v; want the runner's cached 7ms",
					o.Cell.Index, o.Result, o.Err, o.Cached, o.Elapsed)
			}
			return nil
		},
	})
	if err != nil || cells != 4 || res.Cached != 4 {
		t.Fatalf("sweep: %d cells, %v; want 4 cells, all cached", cells, err)
	}
}

// mapStore is an in-memory store.Store that counts writes.
type mapStore struct {
	mu   sync.Mutex
	m    map[store.Key]*scenario.Result
	puts int
}

func (s *mapStore) Get(key store.Key) (*scenario.Result, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[key]
	return res, ok, nil
}

func (s *mapStore) Put(key store.Key, res *scenario.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = map[store.Key]*scenario.Result{}
	}
	s.m[key] = res
	s.puts++
	return nil
}

var resolveSpec = scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8}.Normalized()

// TestResolveStoreHitSkipsRunner: a stored cell comes back Cached with
// the read's (positive) cost, and the runner is never called.
func TestResolveStoreHitSkipsRunner(t *testing.T) {
	st, err := store.OpenPacked(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	hash := resolveSpec.Hash()
	want := &scenario.Result{Role: scenario.RoleChannel, Hash: hash, Seed: 3, Bits: 8}
	if err := st.Put(store.Key{Hash: hash, Seed: 3}, want); err != nil {
		t.Fatal(err)
	}
	runner := engine.ScenarioRunFunc(func(context.Context, scenario.Scenario, string, int64) (*scenario.Result, error) {
		t.Error("runner called for a stored cell")
		return nil, errors.New("unreachable")
	})
	var tally store.Tally
	c, err := engine.Resolve(context.Background(), runner, st, resolveSpec, hash, 3, &tally)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Cached || c.Elapsed <= 0 || c.Result == nil || c.Result.Seed != 3 {
		t.Fatalf("Resolve = %+v; want the stored result, Cached, positive Elapsed", c)
	}
	if hits, misses, transient, permanent := tally.Counts(); hits != 1 || misses != 0 || transient+permanent != 0 {
		t.Fatalf("tally = %d hits, %d misses, %d errors; want 1/0/0", hits, misses, transient+permanent)
	}
}

// TestResolvePersistsOnlySuccesses: a failing and a panicking run each
// return their error (the panic converted by the engine) and leave the
// store untouched; a success is written back.
func TestResolvePersistsOnlySuccesses(t *testing.T) {
	hash := resolveSpec.Hash()
	cases := []struct {
		name    string
		run     engine.ScenarioRunFunc
		wantErr string
		puts    int
	}{
		{"error", func(context.Context, scenario.Scenario, string, int64) (*scenario.Result, error) {
			return nil, errors.New("run failed")
		}, "run failed", 0},
		{"panic", func(context.Context, scenario.Scenario, string, int64) (*scenario.Result, error) {
			panic("boom")
		}, "engine: scenario " + hash + " panicked: boom", 0},
		{"success", func(_ context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
			return &scenario.Result{Role: s.Role, Seed: seed}, nil
		}, "", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &mapStore{}
			var tally store.Tally
			c, err := engine.Resolve(context.Background(), tc.run, st, resolveSpec, hash, 5, &tally)
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
			if c.Cached {
				t.Errorf("computed cell reported Cached")
			}
			if st.puts != tc.puts {
				t.Errorf("store writes = %d, want %d", st.puts, tc.puts)
			}
			if _, misses, _, _ := tally.Counts(); misses != 1 {
				t.Errorf("tally misses = %d, want 1", misses)
			}
		})
	}
}
