package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ichannels/internal/scenario"
)

// streamSource yields n generated (valid, distinct) scenarios.
func streamSource(n int) func() (scenario.Scenario, bool) {
	i := 0
	return func() (scenario.Scenario, bool) {
		if i >= n {
			return scenario.Scenario{}, false
		}
		i++
		return scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 2 * i}, true
	}
}

// fakeStreamRun is a cheap deterministic executor for pipeline tests.
func fakeStreamRun(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
	return &scenario.Result{Role: s.Role, Hash: s.Hash(), Seed: seed, Bits: s.Bits}, nil
}

// TestStreamBoundedMemory is the acceptance check for the streaming
// core: a grid-sized stream (500 scenarios) through a small window
// never holds more than O(workers + window) outcomes between dispatch
// and emission — peak live slots stay flat as the stream length grows.
func TestStreamBoundedMemory(t *testing.T) {
	const (
		n       = 500
		workers = 4
		window  = 8
	)
	var (
		mu         sync.Mutex
		dispatched int
		emitted    int
		peak       int
	)
	src := streamSource(n)
	stats, err := StreamScenarios(context.Background(), StreamOptions{
		Next: func() (scenario.Scenario, bool) {
			s, ok := src()
			if ok {
				mu.Lock()
				dispatched++
				if live := dispatched - emitted; live > peak {
					peak = live
				}
				mu.Unlock()
			}
			return s, ok
		},
		Parallel: workers,
		Window:   window,
		Runner:   ScenarioRunFunc(fakeStreamRun),
		Emit: func(o ScenarioOutcome) error {
			mu.Lock()
			emitted++
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Emitted != n || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want %d emitted, 0 failed", stats, n)
	}
	// window slots buffered + 1 being dispatched is the design bound;
	// allow the one-slot slack, nothing proportional to n.
	if limit := window + 2; peak > limit {
		t.Errorf("peak live outcomes %d exceeds the bound %d (window %d, workers %d)", peak, limit, window, workers)
	}
}

// TestStreamParallelMatchesSerial: the emitted outcome sequence (as
// NDJSON-style bytes) is identical between a serial stream and a
// parallel one with a small window — the determinism contract extended
// to streaming.
func TestStreamParallelMatchesSerial(t *testing.T) {
	render := func(parallel, window int) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		_, err := StreamScenarios(context.Background(), StreamOptions{
			Next:     streamSource(24),
			BaseSeed: 7,
			Parallel: parallel,
			Window:   window,
			Runner:   ScenarioRunFunc(fakeStreamRun),
			Emit: func(o ScenarioOutcome) error {
				return enc.Encode(struct {
					Hash string           `json:"hash"`
					Seed int64            `json:"seed"`
					Res  *scenario.Result `json:"result"`
				}{o.Scenario.Hash(), o.Seed, o.Result})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1, 1)
	for _, cfg := range [][2]int{{4, 4}, {8, 32}} {
		if got := render(cfg[0], cfg[1]); got != serial {
			t.Errorf("parallel=%d window=%d stream bytes differ from serial", cfg[0], cfg[1])
		}
	}
}

// TestStreamInvalidSpecStopsWithPosition: a bad spec mid-stream stops
// the stream with its position; everything before it was emitted.
func TestStreamInvalidSpecStopsWithPosition(t *testing.T) {
	i := 0
	emitted := 0
	_, err := StreamScenarios(context.Background(), StreamOptions{
		Next: func() (scenario.Scenario, bool) {
			i++
			if i == 3 {
				return scenario.Scenario{Role: "warp"}, true
			}
			return scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 2 * i}, true
		},
		Parallel: 2,
		Runner:   ScenarioRunFunc(fakeStreamRun),
		Emit:     func(o ScenarioOutcome) error { emitted++; return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "stream scenario 2") {
		t.Fatalf("invalid spec error = %v, want position 2", err)
	}
	if emitted != 2 {
		t.Errorf("emitted %d outcomes before the invalid spec, want 2", emitted)
	}
}

// TestStreamEmitErrorStops: an Emit error stops the stream promptly —
// the source is not drained to exhaustion.
func TestStreamEmitErrorStops(t *testing.T) {
	pulled := 0
	src := streamSource(10_000)
	boom := fmt.Errorf("sink full")
	_, err := StreamScenarios(context.Background(), StreamOptions{
		Next: func() (scenario.Scenario, bool) {
			pulled++
			return src()
		},
		Parallel: 2,
		Window:   4,
		Runner:   ScenarioRunFunc(fakeStreamRun),
		Emit:     func(o ScenarioOutcome) error { return boom },
	})
	if err != boom {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if pulled > 100 {
		t.Errorf("source pulled %d times after the sink failed; stream did not stop", pulled)
	}
}

// TestStreamCancellationStopsUnboundedSource: cancelling the context
// stops the dispatcher from pulling — an endless generator cannot keep
// the stream alive — and StreamScenarios returns the context error.
func TestStreamCancellationStopsUnboundedSource(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pulled := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := StreamScenarios(ctx, StreamOptions{
			Next: func() (scenario.Scenario, bool) {
				pulled++
				if pulled == 10 {
					cancel()
				}
				// Endless: only cancellation can stop this stream.
				return scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8, Seed: int64(pulled)}, true
			},
			Parallel: 2,
			Window:   4,
			Runner:   ScenarioRunFunc(fakeStreamRun),
		})
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not stop after cancellation")
	}
	if pulled > 20 {
		t.Errorf("source pulled %d times after cancellation", pulled)
	}
}

// TestStreamRunFailuresDoNotStop: per-scenario failures are emitted as
// outcomes and counted, and the stream runs to completion.
func TestStreamRunFailuresDoNotStop(t *testing.T) {
	stats, err := StreamScenarios(context.Background(), StreamOptions{
		Next:     streamSource(10),
		Parallel: 3,
		Runner: ScenarioRunFunc(func(ctx context.Context, s scenario.Scenario, _ string, seed int64) (*scenario.Result, error) {
			if s.Bits%4 == 0 {
				return nil, fmt.Errorf("synthetic failure")
			}
			if s.Bits == 6 {
				panic("boom")
			}
			return fakeStreamRun(ctx, s, "", seed)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Emitted != 10 || stats.Failed != 6 {
		t.Errorf("stats = %+v, want 10 emitted / 6 failed (5 synthetic + 1 panic)", stats)
	}
}
