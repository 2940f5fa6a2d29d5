package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ichannels/internal/scenario"
	"ichannels/internal/store"
)

// DefaultStreamWindowFactor sizes the reorder window when
// StreamOptions.Window is zero: workers × this factor slots may be
// in flight or awaiting emission at once.
const DefaultStreamWindowFactor = 4

// StreamWindow returns the reorder window a stream runs with for the
// given StreamOptions.Parallel and Window settings.
func StreamWindow(parallel, window int) int {
	workers := max(parallel, 1)
	if window == 0 {
		window = DefaultStreamWindowFactor * workers
	}
	return max(window, workers)
}

// StreamOptions configures a streaming scenario run. Unlike
// ScenarioOptions there is no materialized batch: scenarios are pulled
// one at a time from Next and outcomes are pushed in stream order to
// Emit, holding at most O(Parallel + Window) outcomes in memory — the
// execution core sweeps and any other unbounded producer ride on.
type StreamOptions struct {
	// Next yields the stream's scenarios in order, returning ok=false
	// when exhausted. It is called serially from one goroutine.
	Next func() (scenario.Scenario, bool)
	// BaseSeed derives per-scenario seeds for specs that pin none,
	// exactly like ScenarioOptions.BaseSeed.
	BaseSeed int64
	// Parallel is the worker-pool size. Values below 1 mean serial.
	Parallel int
	// Window bounds how many outcomes may be in flight or awaiting
	// ordered emission (the reorder buffer). Zero means
	// DefaultStreamWindowFactor × workers; values below the worker
	// count are raised to it (a smaller window would idle workers).
	Window int
	// Runner executes each cell (nil means scenario.Runner{}). It
	// receives the cell's precomputed content hash alongside the spec
	// and seed — the delegation seam the distributed tier plugs into (a
	// coordinator dispatches the cell to a remote worker and verifies
	// the returned envelope against that hash). The store
	// fetch-or-compute wrapping still applies: a stored cell is never
	// delegated, and a delegated success is persisted like a local one.
	Runner CellRunner
	// Store, when set, is consulted before computing each scenario and
	// persisted to after: a stored (hash, seed) result is emitted with
	// Cached=true instead of recomputing, and every freshly computed
	// success is written back. Because stored results are byte-identical
	// to recomputed ones (the determinism contract), the emitted bytes
	// do not depend on which cells hit — only wall-clock does. An
	// unreadable entry counts as a miss (StreamStats.StoreTransient or
	// StorePermanent) and the cell recomputes; store errors never fail
	// a scenario.
	Store store.Store
	// Emit receives each outcome in stream order, from the caller's
	// goroutine. A non-nil error stops the stream (in-flight work is
	// drained, nothing new starts) and is returned by StreamScenarios.
	Emit func(ScenarioOutcome) error
}

// CellRunner executes one scenario cell identified by its content hash
// and effective seed — the one compute seam StreamScenarios runs every
// cell through (StreamOptions.Runner). It receives a normalized,
// validated spec and its hash as scenario.Identify returns them, and
// trusts both; the hash is the store key, the wire frame's, and the
// result's. Implementations must honor the determinism
// contract: for a fixed (spec, seed) the returned result's JSON
// encoding is byte-identical to scenario.Run's, no matter where or how
// the cell was computed. The in-process default is scenario.Runner
// (through ScenarioRunFunc); the distributed coordinator
// (internal/dist) is the remote one, and the HTTP server
// (internal/serve) fronts its memory cache with one.
type CellRunner interface {
	RunCell(ctx context.Context, s scenario.Scenario, hash string, seed int64) (CellResult, error)
}

// CellResult is one resolved cell as its runner reports it. Cached
// marks a result the runner did not compute for this call (a store or
// cache already held it). Elapsed is the cell's own cost — its
// compute, or the read that served it — never time spent waiting for
// a slot or for another caller's computation of the same cell.
type CellResult struct {
	Result  *scenario.Result
	Cached  bool
	Elapsed time.Duration
}

// ScenarioRunFunc adapts an ordinary executor function to a CellRunner
// that times the call — the http.HandlerFunc pattern. The method value
// scenario.Runner{Machines: pool}.RunCell is the in-process runner;
// tests wrap fakes in it.
type ScenarioRunFunc func(ctx context.Context, s scenario.Scenario, hash string, seed int64) (*scenario.Result, error)

// RunCell implements CellRunner by calling f(ctx, s, hash, seed),
// reporting the call's duration as the cell's cost.
func (f ScenarioRunFunc) RunCell(ctx context.Context, s scenario.Scenario, hash string, seed int64) (CellResult, error) {
	t0 := time.Now()
	res, err := f(ctx, s, hash, seed)
	return CellResult{Result: res, Elapsed: time.Since(t0)}, err
}

// StreamStats summarizes a completed (or stopped) stream: only what the
// stream counts itself. Counters owned elsewhere — the runner's, the
// store's tier, a machine pool's — are read from their owners.
type StreamStats struct {
	// Emitted counts outcomes handed to Emit.
	Emitted int
	// Failed counts emitted outcomes whose runner returned an error.
	Failed int
	// Cached counts emitted outcomes served from the result store (or
	// reported cached by the runner) instead of computed.
	Cached int
	// StoreTransient and StorePermanent count store operations (get or
	// put) that failed, by class (store.Tally); each was degraded
	// to a miss or a skipped write, never a failed scenario. Transient
	// failures (network blips, timeouts, 5xx, an open breaker) point at
	// infrastructure, permanent ones (corrupt envelopes) at a damaged
	// or byzantine store.
	StoreTransient int
	StorePermanent int
	// Parallel is the effective worker count.
	Parallel int
	// Elapsed is the stream wall-clock time.
	Elapsed time.Duration
}

// streamSlot carries one scenario through the pipeline: the dispatcher
// fills Scenario/Seed, a worker fills Result/Err/Cached/Elapsed and closes
// ready, and the emitter (which receives slots in dispatch order
// through a bounded channel) waits on ready before handing the outcome
// to Emit. The bounded channel is both the ordering and the memory
// bound: at most Window slots exist between dispatch and emission.
type streamSlot struct {
	outcome ScenarioOutcome
	ready   chan struct{}
}

// StreamScenarios executes an unbounded, lazily produced sequence of
// scenarios on a worker pool and emits outcomes in order with bounded
// memory — the streaming core RunScenarios (collect-all) and the sweep
// subsystem (grids bigger than memory) are built on.
//
// Determinism: outcomes are emitted in stream order and every spec that
// pins no seed receives DeriveScenarioSeed(BaseSeed, spec), so for a
// fixed BaseSeed the emitted result bytes are identical at any
// Parallel/Window setting; only wall-clock differs.
//
// An invalid spec stops the stream with an error identifying its
// position (scenarios already emitted stay emitted); individual run
// failures are per-outcome and do not stop the stream. Cancelling the
// context stops the stream: nothing more is pulled from Next (so an
// unbounded source cannot spin forever), in-flight outcomes drain
// through Emit with their results or context errors, and the context's
// error is returned. RunScenarios converts that truncation back into
// its per-outcome-error batch contract.
func StreamScenarios(ctx context.Context, opts StreamOptions) (*StreamStats, error) {
	if opts.Next == nil {
		return nil, fmt.Errorf("engine: stream needs a Next source")
	}
	runner := opts.Runner
	if runner == nil {
		runner = ScenarioRunFunc(scenario.Runner{}.RunCell)
	}
	workers := max(opts.Parallel, 1)
	window := StreamWindow(opts.Parallel, opts.Window)

	var (
		pending = make(chan *streamSlot, window) // dispatch order, bounds memory
		jobs    = make(chan *streamSlot)         // unordered work feed
		stop    = make(chan struct{})            // closed on emit error
		wg      sync.WaitGroup
		srcErr  error // invalid-spec or cancellation error, owned by the dispatcher
	)

	var tally store.Tally
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sl := range jobs {
				o := &sl.outcome
				if err := ctx.Err(); err != nil {
					o.Err = err
				} else {
					var c CellResult
					c, o.Err = Resolve(ctx, runner, opts.Store, o.Scenario, o.Hash, o.Seed, &tally)
					o.Result, o.Cached, o.Elapsed = c.Result, c.Cached, c.Elapsed
				}
				close(sl.ready)
			}
		}()
	}

	go func() {
		defer close(pending)
		defer close(jobs)
		for i := 0; ; i++ {
			// Stop pulling on cancellation — the source may be
			// unbounded, and even a finite one should not be drained
			// cell by cell after a Ctrl-C.
			if err := ctx.Err(); err != nil {
				srcErr = err
				return
			}
			s, ok := opts.Next()
			if !ok {
				return
			}
			o, err := identify(s, opts.BaseSeed)
			if err != nil {
				srcErr = fmt.Errorf("engine: stream scenario %d: %w", i, err)
				return
			}
			sl := &streamSlot{outcome: o, ready: make(chan struct{})}
			// The pending send blocks once Window slots await emission —
			// that back-pressure is the memory bound.
			select {
			case pending <- sl:
			case <-stop:
				close(sl.ready) // never dispatched; unblock nobody, but keep the invariant
				return
			}
			select {
			case jobs <- sl:
			case <-stop:
				return
			}
		}
	}()

	stats := &StreamStats{Parallel: workers}
	var emitErr error
	for sl := range pending {
		if emitErr != nil {
			continue // drain
		}
		<-sl.ready
		stats.Emitted++
		if sl.outcome.Err != nil {
			stats.Failed++
		}
		if sl.outcome.Cached {
			stats.Cached++
		}
		if opts.Emit != nil {
			if err := opts.Emit(sl.outcome); err != nil {
				emitErr = err
				close(stop)
			}
		}
	}
	wg.Wait()
	_, _, transient, permanent := tally.Counts()
	stats.StoreTransient, stats.StorePermanent = int(transient), int(permanent)
	stats.Elapsed = time.Since(start)
	if emitErr != nil {
		return stats, emitErr
	}
	if srcErr != nil {
		return stats, srcErr
	}
	return stats, nil
}

// Resolve is the one fetch-or-compute path every surface resolves a
// cell through — the stream's workers for the CLI and sweeps, and the
// HTTP server under its memory cache. With a store set it reads
// (hash, seed) first: a hit returns Cached with the read's cost and
// never calls run. Otherwise it runs the cell through run with panic
// isolation and persists a success. Only successes are stored — errors
// are deterministic too, but pinning them to disk would make a
// transient environmental failure (out of memory, a panic from a
// since-fixed bug) permanent. Every read and every failed write is
// tallied (tally must be non-nil when st is); a store error never
// fails the cell — an unreadable entry recomputes, a failed write is
// skipped.
func Resolve(ctx context.Context, run CellRunner, st store.Store, s scenario.Scenario, hash string, seed int64, tally *store.Tally) (CellResult, error) {
	key := store.Key{Hash: hash, Seed: seed}
	if st != nil {
		t0 := time.Now()
		res, ok, err := store.GetContext(ctx, st, key)
		tally.Read(ok, err)
		if ok && err == nil {
			return CellResult{Result: res, Cached: true, Elapsed: time.Since(t0)}, nil
		}
	}
	c, err := runCellIsolated(ctx, run, s, hash, seed)
	if st != nil && err == nil {
		if err := store.PutContext(ctx, st, key, c.Result); err != nil {
			tally.Count(err)
		}
	}
	return c, err
}

// runCellIsolated converts a runner panic into an error so one broken
// cell (or a panicking delegation layer) cannot take down a stream or
// a server.
func runCellIsolated(ctx context.Context, run CellRunner, s scenario.Scenario, hash string, seed int64) (c CellResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			c, err = CellResult{}, fmt.Errorf("engine: scenario %s panicked: %v", hash, p)
		}
	}()
	return run.RunCell(ctx, s, hash, seed)
}
