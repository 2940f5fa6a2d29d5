package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"ichannels/internal/engine"
	"ichannels/internal/scenario"
	"ichannels/internal/store"
)

// Defaults for Options zero values.
const (
	DefaultMaxAttempts      = 3
	DefaultBackoffBase      = 100 * time.Millisecond
	DefaultBackoffMax       = 5 * time.Second
	DefaultMaxResponseBytes = 64 << 20
)

// Options configures a coordinator Pool.
type Options struct {
	// Client is the HTTP client dispatches go through. Nil means a
	// fresh client with no global timeout — cells are bounded by the
	// run context, and a worker grinding through a long simulation must
	// not be declared dead by a stopwatch.
	Client *http.Client
	// MaxAttempts bounds how many workers one cell is offered to before
	// it degrades to local compute. Zero means DefaultMaxAttempts.
	MaxAttempts int
	// BackoffBase/BackoffMax shape the per-worker quarantine after a
	// failed dispatch: base doubles per consecutive failure, capped at
	// max. Zeroes mean the defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxResponseBytes bounds one worker response. Zero means
	// DefaultMaxResponseBytes.
	MaxResponseBytes int64
	// Run overrides the local fallback executor (nil means
	// scenario.Runner{}.RunCell); tests inject it to observe fallback.
	Run func(ctx context.Context, s scenario.Scenario, hash string, seed int64) (*scenario.Result, error)
}

// Stats summarizes a pool's activity. All counters are cumulative over
// the pool's lifetime and safe to snapshot concurrently.
type Stats struct {
	// Dispatched counts cells served by a worker and verified.
	Dispatched int `json:"dispatched"`
	// Redispatched counts failed dispatch attempts that were retried —
	// the in-flight cells of a dead worker land here.
	Redispatched int `json:"redispatched"`
	// Corrupt counts worker responses rejected by envelope
	// verification: wrong version, wrong (hash, seed) identity, or a
	// checksum mismatch over the result bytes — byzantine or stale
	// workers.
	Corrupt int `json:"corrupt"`
	// LocalFallback counts cells computed locally after dispatch was
	// exhausted (or a worker reported a deterministic run failure,
	// which is recomputed locally so error bytes match a serial run).
	LocalFallback int `json:"local_fallback"`
}

// worker is one remote endpoint's dispatch state.
type worker struct {
	url      string
	inflight int
	fails    int // consecutive failures
	until    time.Time
}

// Pool is the distributed coordinator: an engine.CellRunner that
// dispatches cells to the least-loaded healthy worker, verifies every
// response through store.DecodeEnvelope, quarantines failing workers
// with exponential backoff, and falls back to local compute so a sweep
// finishes with byte-identical output no matter how the fleet behaves.
type Pool struct {
	client      *http.Client
	maxAttempts int
	backoffBase time.Duration
	backoffMax  time.Duration
	maxResp     int64
	runLocal    engine.ScenarioRunFunc

	mu      sync.Mutex
	workers []*worker
	stats   Stats
}

// New builds a coordinator over the given worker base URLs (scheme +
// host[:port], e.g. "http://10.0.0.7:8080"; the /v1/cells path is
// appended per dispatch).
func New(workers []string, opts Options) (*Pool, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("dist: no workers given")
	}
	p := &Pool{
		client:      opts.Client,
		maxAttempts: opts.MaxAttempts,
		backoffBase: opts.BackoffBase,
		backoffMax:  opts.BackoffMax,
		maxResp:     opts.MaxResponseBytes,
		runLocal:    opts.Run,
	}
	if p.client == nil {
		p.client = &http.Client{}
	}
	if p.maxAttempts <= 0 {
		p.maxAttempts = DefaultMaxAttempts
	}
	if p.backoffBase <= 0 {
		p.backoffBase = DefaultBackoffBase
	}
	if p.backoffMax <= 0 {
		p.backoffMax = DefaultBackoffMax
	}
	if p.maxResp <= 0 {
		p.maxResp = DefaultMaxResponseBytes
	}
	if p.runLocal == nil {
		p.runLocal = scenario.Runner{}.RunCell
	}
	seen := map[string]bool{}
	for _, raw := range workers {
		u, err := url.Parse(strings.TrimRight(strings.TrimSpace(raw), "/"))
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("dist: worker %q: need an http(s) base URL", raw)
		}
		if u.Path != "" {
			return nil, fmt.Errorf("dist: worker %q: give the base URL only (the %s path is appended)", raw, DispatchPath)
		}
		base := u.String()
		if seen[base] {
			return nil, fmt.Errorf("dist: worker %q given more than once", base)
		}
		seen[base] = true
		p.workers = append(p.workers, &worker{url: base})
	}
	return p, nil
}

// Workers returns the pool's worker base URLs in registration order.
func (p *Pool) Workers() []string {
	out := make([]string, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.url
	}
	return out
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// pick returns the least-loaded worker not in quarantine (ties to the
// lowest index), reserving an in-flight slot, or nil when the whole
// fleet is quarantined.
func (p *Pool) pick(now time.Time) *worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *worker
	for _, w := range p.workers {
		if now.Before(w.until) {
			continue
		}
		if best == nil || w.inflight < best.inflight {
			best = w
		}
	}
	if best != nil {
		best.inflight++
	}
	return best
}

// release returns a worker's in-flight slot, clearing or growing its
// quarantine by the attempt's outcome.
func (p *Pool) release(w *worker, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.inflight--
	if ok {
		w.fails = 0
		w.until = time.Time{}
		return
	}
	w.fails++
	back := p.backoffBase << (w.fails - 1)
	if back > p.backoffMax || back <= 0 {
		back = p.backoffMax
	}
	w.until = time.Now().Add(back)
}

func (p *Pool) count(fn func(*Stats)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn(&p.stats)
}

// dispatchErr classifies one failed dispatch attempt. Every failure
// ends in a redispatch or the local fallback, so only the class is
// kept — it feeds the Stats counters.
type dispatchErr struct {
	corrupt bool // envelope verification rejected the response
	// runFailed marks a worker-reported deterministic scenario failure
	// — not a worker fault; the cell recomputes locally so its error
	// bytes match a serial run.
	runFailed bool
}

// RunCell implements engine.CellRunner: dispatch the cell to up to
// MaxAttempts workers, verify each response against the store envelope
// format, and degrade to local compute when the fleet cannot serve it.
// The returned result is byte-identical to a local run's by the
// determinism contract — verification enforces the envelope's
// integrity, determinism guarantees its content. Elapsed is the
// dispatch that served the cell, or the local fallback's compute.
func (p *Pool) RunCell(ctx context.Context, s scenario.Scenario, hash string, seed int64) (engine.CellResult, error) {
	frame, err := json.Marshal(NewCellDispatch(s, hash, seed))
	if err != nil {
		return engine.CellResult{}, fmt.Errorf("dist: framing cell %s-%d: %w", hash, seed, err)
	}
	key := store.Key{Hash: hash, Seed: seed}
	for attempt := 0; attempt < p.maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return engine.CellResult{}, err
		}
		w := p.pick(time.Now())
		if w == nil {
			break // whole fleet quarantined; fall through
		}
		t0 := time.Now()
		res, derr := p.dispatch(ctx, w, key, frame)
		if derr == nil {
			p.release(w, true)
			p.count(func(st *Stats) { st.Dispatched++ })
			return engine.CellResult{Result: res, Elapsed: time.Since(t0)}, nil
		}
		if derr.runFailed {
			// The worker is healthy; the scenario itself fails
			// deterministically. Recompute locally so the emitted error
			// string is the one a serial run produces.
			p.release(w, true)
			return p.fallback(ctx, s, hash, seed)
		}
		p.release(w, false)
		p.count(func(st *Stats) {
			st.Redispatched++
			if derr.corrupt {
				st.Corrupt++
			}
		})
	}
	return p.fallback(ctx, s, hash, seed)
}

// fallback computes a cell locally, counting it.
func (p *Pool) fallback(ctx context.Context, s scenario.Scenario, hash string, seed int64) (engine.CellResult, error) {
	p.count(func(st *Stats) { st.LocalFallback++ })
	return p.runLocal.RunCell(ctx, s, hash, seed)
}

// workerError is the structured {code, message} error envelope the
// serve layer answers failures with (mirrored here; dist cannot import
// serve, which imports dist for the wire types).
type workerError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// dispatch POSTs one framed cell to w and verifies the response.
func (p *Pool) dispatch(ctx context.Context, w *worker, key store.Key, frame []byte) (*scenario.Result, *dispatchErr) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+DispatchPath, bytes.NewReader(frame))
	if err != nil {
		return nil, &dispatchErr{}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, &dispatchErr{}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, p.maxResp+1))
	if err != nil {
		return nil, &dispatchErr{}
	}
	if int64(len(data)) > p.maxResp {
		return nil, &dispatchErr{corrupt: true}
	}
	if resp.StatusCode != http.StatusOK {
		var we workerError
		_ = json.Unmarshal(data, &we)
		// 5xx with the run_failed code is the scenario failing
		// deterministically, not the worker failing; everything else
		// (version skew, hash mismatch, overload) is a worker problem.
		return nil, &dispatchErr{runFailed: we.Code == "run_failed"}
	}
	res, err := store.DecodeEnvelope(key, data)
	if err != nil {
		return nil, &dispatchErr{corrupt: true}
	}
	return res, nil
}
