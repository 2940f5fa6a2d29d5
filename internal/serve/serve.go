// Package serve exposes the scenario engine over a versioned HTTP/JSON
// API so a fleet of clients can request arbitrary simulated runs — not
// just the pre-registered figure experiments — without shelling out to
// the CLI:
//
//	GET  /v1/experiments       list registered experiments (id, section, desc)
//	GET  /v1/scenarios/schema  machine-readable Scenario spec schema
//	POST /v1/scenarios         run one scenario (JSON object) or a batch
//	                           (JSON array; the response streams NDJSON,
//	                           one outcome line per scenario, in order)
//	GET  /v1/sweeps/schema     machine-readable Sweep spec schema
//	POST /v1/sweeps            expand and run a parameter grid; the
//	                           response streams one NDJSON line per cell
//	                           followed by an aggregate envelope
//	                           (see internal/sweep)
//
// Errors carry a structured envelope {code, message} (plus a legacy
// "error" field). Mutating routes enforce method and Content-Type
// (application/json); malformed seed query values are rejected with
// HTTP 400.
//
// A registered figure experiment runs like any other scenario: POST
// /v1/scenarios with {"role":"experiment","experiment":ID,"seed":N}.
//
// Every route resolves a cell the same way — Server.RunCell publishes
// or joins its cache entry and fills it once through engine.Resolve,
// the fetch-or-compute path the CLI and sweeps share — and every
// fan-out is the engine stream: a batch runs on engine.StreamScenarios
// and a sweep on sweep.Run, with the Server itself as the
// engine.CellRunner. A cell's elapsed_us is its entry's compute (or
// store-read) cost on every route, never the time a request waited for
// it.
//
// Results are cached in memory keyed by (scenario hash, seed). Because
// the simulator is deterministic for a fixed seed (see
// docs/ARCHITECTURE.md) a cached result is bit-for-bit the result a
// fresh run would produce, so repeated requests are served without
// recomputation. Concurrent requests for the same key are coalesced:
// only the first computes, the
// rest wait for its result — including across items of one batch and
// across unrelated clients. Runner errors are cached too — they are
// equally deterministic — so a failing (scenario, seed) pair does not
// burn CPU on every retry. The cache is bounded
// (Options.MaxCacheEntries, LRU eviction — hits refresh recency, so a
// sweep session's hot repeated cells outlive one-shot grid neighbours)
// so seed sweeps cannot grow the process without limit.
//
// With Options.Store set the cache becomes two-tier: a memory miss
// consults the durable result store (internal/store) before computing,
// and every computed success is persisted, so a restarted server warms
// from disk and eviction never discards work — only the memory copy.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ichannels/internal/dist"
	"ichannels/internal/engine"
	"ichannels/internal/exp"
	"ichannels/internal/scenario"
	"ichannels/internal/soc"
	"ichannels/internal/store"
)

// DefaultMaxCacheEntries bounds the result cache when Options leaves
// MaxCacheEntries zero.
const DefaultMaxCacheEntries = 1024

// MaxBatchScenarios bounds one POST /v1/scenarios array.
const MaxBatchScenarios = 256

// maxBodyBytes bounds one request body.
const maxBodyBytes = 4 << 20

// Error codes of the structured error envelope.
const (
	CodeBadRequest       = "bad_request"
	CodeInvalidScenario  = "invalid_scenario"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeUnsupportedMedia = "unsupported_media_type"
	CodeTooLarge         = "payload_too_large"
	CodeRunFailed        = "run_failed"
	CodeNotFound         = "not_found"
	CodeStoreError       = "store_error"
	CodeUnsupported      = "unsupported"
)

// Options configures a Server.
type Options struct {
	// Run overrides the experiment executor of experiment-role
	// scenarios (nil means exp.Run). Injected by tests to observe cache
	// behavior.
	Run func(id string, seed int64) (*exp.Report, error)
	// MaxCacheEntries bounds the result cache; when full, the
	// least-recently-used completed entry is evicted (a cache hit
	// refreshes the entry's recency, so a sweep session's hot repeated
	// cells survive long grids of one-shot neighbours). Zero means
	// DefaultMaxCacheEntries. Negative disables caching — and with it
	// the coalescing of concurrent identical requests, which rides on
	// the published cache entries.
	MaxCacheEntries int
	// MaxConcurrent bounds how many simulations run at once across all
	// requests (coalesced duplicates share one slot). Zero means
	// GOMAXPROCS, negative means unbounded.
	MaxConcurrent int
	// Store, when set, is the durable tier under the in-memory cache:
	// a memory miss consults the store before computing, and every
	// freshly computed success is persisted. A restarted server warms
	// from disk — re-posting a sweep recomputes nothing — and LRU
	// eviction costs only memory, never the corpus. An unreadable
	// entry degrades to a miss; a failed write to a skipped persist.
	Store store.Store
	// Worker additionally exposes the distributed tier's cell endpoint
	// (POST /v1/cells, see internal/dist): a coordinator dispatches
	// sweep cells here and verifies the checksummed envelope responses.
	// Off by default — a plain API server is not a compute worker.
	Worker bool
	// GCEvery, when positive and the store supports retention
	// (GCWith — store.Packed and the replica cache have it), runs an
	// age/size GC pass on that interval for the lifetime of the
	// server. GCMaxAge and GCMaxBytes are the pass's GCOptions; both
	// zero still removes corrupt entries and stale temporaries. The
	// retention config and last report are advertised via /v1/stats,
	// and GCMaxBytes also caps uploaded envelopes on the shared store
	// routes.
	GCEvery    time.Duration
	GCMaxAge   time.Duration
	GCMaxBytes int64
	// ShareStore additionally exposes the store's object routes
	// (GET/PUT /v1/store/{key}, GET /v1/store — see store.HTTPBackend):
	// remote processes opening `-store http://this-host` read and write
	// this server's corpus without a shared filesystem. Requires Store;
	// off by default — sharing a corpus is an operator decision.
	ShareStore bool
}

// Server runs scenarios on demand and caches their results.
type Server struct {
	sim        *simulator // in-process cell runner under the semaphore
	machines   *soc.Pool  // machine pool the simulator recycles SoCs through
	maxCache   int
	store      store.Store // nil = memory-only; else the durable tier
	worker     bool        // serve the /v1/cells dispatch endpoint
	shareStore bool        // serve the /v1/store object routes

	// Retention config (see Options.GCEvery); zero values mean off.
	gcEvery    time.Duration
	gcMaxAge   time.Duration
	gcMaxBytes int64
	gcStop     chan struct{}
	closeOnce  sync.Once

	// tally counts durable-tier traffic from both the cell path
	// (engine.Resolve) and the shared /v1/store object routes.
	tally store.Tally

	mu        sync.Mutex
	cache     map[cacheKey]*cacheEntry
	order     []cacheKey // recency order, oldest first, for LRU eviction
	hits      int64
	misses    int64
	gcRuns    int64
	lastGC    *store.GCReport
	lastGCErr string
	lastGCAt  time.Time
}

// cacheKey identifies one deterministic result: the scenario's content
// hash plus the effective seed.
type cacheKey struct {
	Hash string
	Seed int64
}

// cacheEntry coalesces concurrent computations of one key: the entry is
// published under the mutex and the computation runs exactly once —
// every other caller of RunCell blocks in once.Do until it finishes.
// Eviction skips in-flight entries (evicting one would let a concurrent
// identical request start a duplicate simulation).
type cacheEntry struct {
	once sync.Once
	// cell and err are engine.Resolve's answer (set inside once.Do;
	// read only after it). cell.Cached marks a store hit.
	cell engine.CellResult
	err  error
	// finished is set when the computation completes; done reads it
	// without joining the computation.
	finished atomic.Bool
}

// done reports whether the computation has finished.
func (e *cacheEntry) done() bool { return e.finished.Load() }

// New builds a Server.
func New(opts Options) *Server {
	maxCache := opts.MaxCacheEntries
	if maxCache == 0 {
		maxCache = DefaultMaxCacheEntries
	}
	machines := soc.NewPool()
	sim := &simulator{run: scenario.Runner{ExpRun: opts.Run, Machines: machines}.RunCell}
	switch c := opts.MaxConcurrent; {
	case c == 0:
		sim.sem = make(chan struct{}, runtime.GOMAXPROCS(0))
	case c > 0:
		sim.sem = make(chan struct{}, c)
	}
	s := &Server{
		sim:        sim,
		machines:   machines,
		maxCache:   maxCache,
		store:      opts.Store,
		worker:     opts.Worker,
		shareStore: opts.ShareStore && opts.Store != nil,
		gcEvery:    opts.GCEvery,
		gcMaxAge:   opts.GCMaxAge,
		gcMaxBytes: opts.GCMaxBytes,
		cache:      map[cacheKey]*cacheEntry{},
	}
	if s.gcEvery > 0 {
		if _, ok := s.store.(retainer); ok {
			s.gcStop = make(chan struct{})
			go s.retentionLoop()
		}
	}
	return s
}

// retainer is the retention surface a store must expose for the timer
// (store.Packed and the replica cache satisfy it).
type retainer interface {
	GCWith(opts store.GCOptions) (*store.GCReport, error)
}

// retentionLoop runs GC passes on the configured interval until Close.
func (s *Server) retentionLoop() {
	t := time.NewTicker(s.gcEvery)
	defer t.Stop()
	for {
		select {
		case <-s.gcStop:
			return
		case <-t.C:
			s.RunRetention()
		}
	}
}

// RunRetention runs one retention pass now (the timer calls it; tests
// and operators may too). It returns the pass's report, or an error
// when the store does not support retention or the pass failed.
func (s *Server) RunRetention() (*store.GCReport, error) {
	ret, ok := s.store.(retainer)
	if !ok {
		return nil, fmt.Errorf("serve: store does not support retention")
	}
	rep, err := ret.GCWith(store.GCOptions{MaxAge: s.gcMaxAge, MaxBytes: s.gcMaxBytes})
	s.mu.Lock()
	s.gcRuns++
	s.lastGCAt = time.Now()
	s.lastGC, s.lastGCErr = rep, ""
	if err != nil {
		s.lastGCErr = err.Error()
	}
	s.mu.Unlock()
	return rep, err
}

// Close stops the retention timer. Safe to call more than once; a
// server without retention needs no Close, but callers may do so
// unconditionally.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.gcStop != nil {
			close(s.gcStop)
		}
	})
	return nil
}

// Handler returns the HTTP routing for the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// v1 routes do their own method checks so 405s carry the
	// structured error envelope.
	mux.HandleFunc("/v1/experiments", s.v1Experiments)
	mux.HandleFunc("/v1/scenarios/schema", s.v1Schema)
	mux.HandleFunc("/v1/scenarios", s.v1Scenarios)
	mux.HandleFunc("/v1/sweeps/schema", s.v1SweepSchema)
	mux.HandleFunc("/v1/sweeps", s.v1Sweeps)
	mux.HandleFunc("/v1/stats", s.v1Stats)
	if s.worker {
		mux.HandleFunc(dist.DispatchPath, s.v1Cells)
	}
	if s.shareStore {
		mux.HandleFunc(store.StorePathPrefix, s.v1StoreIndex)
		mux.HandleFunc(store.StorePathPrefix+"/", s.v1StoreEntry)
	}
	return mux
}

// CacheStats reports cache hits and misses so far (hit = the request
// found a published entry, even if it then waited for the computation).
func (s *Server) CacheStats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// entry returns the cache entry for key, creating (and publishing) it
// if absent. cached reports whether the result was already complete
// when the request arrived — the condition under which the response is
// marked served-from-cache; a coalesced waiter on an in-flight entry
// still pays the compute wall-clock.
//
// Eviction is LRU: a hit moves the key to the back of the recency
// order, so long sweep sessions re-requesting a hot working set keep it
// resident while one-shot grid cells age out from the front.
func (s *Server) entry(key cacheKey) (ent *cacheEntry, cached bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, hit := s.cache[key]
	cached = hit && ent != nil && ent.done()
	if hit {
		s.hits++
		s.touchLocked(key)
		return ent, cached
	}
	s.misses++
	ent = &cacheEntry{}
	if s.maxCache > 0 {
		// Evict least-recently-used completed entries; in-flight ones
		// are skipped (the cap may be exceeded transiently, bounded by
		// MaxConcurrent plus waiters).
		for len(s.cache) >= s.maxCache {
			evicted := false
			for i, k := range s.order {
				if e := s.cache[k]; e != nil && e.done() {
					// In place: building a fresh slice here would
					// allocate O(MaxCacheEntries) on every eviction.
					copy(s.order[i:], s.order[i+1:])
					s.order = s.order[:len(s.order)-1]
					delete(s.cache, k)
					evicted = true
					break
				}
			}
			if !evicted {
				break
			}
		}
		s.cache[key] = ent
		s.order = append(s.order, key)
	}
	return ent, false
}

// touchLocked moves key to the back of the recency order. The linear
// scan is bounded by MaxCacheEntries and is noise next to the
// simulations the cache fronts.
func (s *Server) touchLocked(key cacheKey) {
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.order[i] == key {
			copy(s.order[i:], s.order[i+1:])
			s.order[len(s.order)-1] = key
			return
		}
	}
}

// simulator is the server's in-process engine.CellRunner: it takes a
// simulation slot, then runs the cell, so elapsed_us reports compute
// cost only — the semaphore wait is queueing, not simulation.
type simulator struct {
	sem chan struct{} // nil = unbounded; else bounds running simulations
	run engine.ScenarioRunFunc
}

func (m *simulator) RunCell(ctx context.Context, n scenario.Scenario, hash string, seed int64) (engine.CellResult, error) {
	if m.sem != nil {
		m.sem <- struct{}{}
		defer func() { <-m.sem }()
	}
	return m.run.RunCell(ctx, n, hash, seed)
}

// StoreCounters reports the durable tier's full tally: hits (reads
// served from the corpus), misses (clean absences that led to a
// compute), and errors (unreadable entries and failed writes, of
// either class). The cell path and the shared /v1/store object routes
// both feed it, so the counters describe corpus effectiveness across
// every consumer of this server's store. Zeroes when no store is
// configured.
func (s *Server) StoreCounters() (hits, misses, errors int64) {
	hits, misses, transient, permanent := s.tally.Counts()
	return hits, misses, transient + permanent
}

// ---- wire envelopes ----

// errorBody is the structured error envelope. The legacy "error" field
// duplicates Message for PR-1 clients.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Legacy  string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func errBody(code, format string, args ...any) *errorBody {
	msg := fmt.Sprintf(format, args...)
	return &errorBody{Code: code, Message: msg, Legacy: msg}
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errBody(code, format, args...))
}

// querySeed reads the optional ?seed= query value: the seed of specs
// that pin none (a single scenario runs with it, batch items and sweep
// cells derive theirs from it). Absent means scenario.DefaultSeed; a
// value follows scenario.ResolveSeed, the rule the CLI's -seed flags and
// a spec's seed field share. Malformed and conflicting values are
// rejected instead of silently defaulting.
func querySeed(r *http.Request) (int64, error) {
	vals := r.URL.Query()["seed"]
	if len(vals) == 0 {
		return scenario.DefaultSeed, nil
	}
	for _, v := range vals[1:] {
		if v != vals[0] {
			return 0, fmt.Errorf("conflicting seed values %q and %q", vals[0], v)
		}
	}
	seed, err := strconv.ParseInt(vals[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad seed %q: must be an integer", vals[0])
	}
	return scenario.ResolveSeed(seed)
}

// readBody reads a request body of at most maxBodyBytes, answering
// 400 or 413 itself when it cannot.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "reading body: %v", err)
		return nil, false
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
			"request body exceeds %d bytes", maxBodyBytes)
		return nil, false
	}
	return body, true
}

// requireJSON enforces the Content-Type of mutating routes.
func requireJSON(w http.ResponseWriter, r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	mt, _, err := mime.ParseMediaType(ct)
	if ct == "" || err != nil || mt != "application/json" {
		writeError(w, http.StatusUnsupportedMediaType, CodeUnsupportedMedia,
			"Content-Type must be application/json, got %q", ct)
		return false
	}
	return true
}

// methodOnly enforces one HTTP method with a structured 405.
func methodOnly(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"%s %s not allowed; use %s", r.Method, r.URL.Path, method)
		return false
	}
	return true
}

// ---- v1 handlers ----

func (s *Server) v1Experiments(w http.ResponseWriter, r *http.Request) {
	if !methodOnly(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, exp.Experiments())
}

func (s *Server) v1Schema(w http.ResponseWriter, r *http.Request) {
	if !methodOnly(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(scenario.SchemaJSON())
}

// scenarioResponse is the wire form of one scenario run. The result
// object is the deterministic payload; name/cached/elapsed_us are
// serving metadata (the name is the requester's label — results are
// shared through the cache, so the label lives here, not in them).
type scenarioResponse struct {
	Name      string           `json:"name,omitempty"`
	Hash      string           `json:"hash"`
	Seed      int64            `json:"seed"`
	Cached    bool             `json:"cached"`
	ElapsedUS float64          `json:"elapsed_us"`
	Result    *scenario.Result `json:"result"`
}

// scenarioLine is one NDJSON line of a batch response. Exactly one of
// Error and Result is set.
type scenarioLine struct {
	Index     int              `json:"index"`
	Name      string           `json:"name,omitempty"`
	Hash      string           `json:"hash"`
	Seed      int64            `json:"seed"`
	Cached    bool             `json:"cached"`
	ElapsedUS float64          `json:"elapsed_us"`
	Error     *errorBody       `json:"error,omitempty"`
	Result    *scenario.Result `json:"result,omitempty"`
}

// v1Scenarios accepts a single Scenario object or an array of them.
func (s *Server) v1Scenarios(w http.ResponseWriter, r *http.Request) {
	if !methodOnly(w, r, http.MethodPost) {
		return
	}
	if !requireJSON(w, r) {
		return
	}
	baseSeed, err := querySeed(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	specs, isArray, err := scenario.ParseSpecs(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding scenarios: %v (see /v1/scenarios/schema)", err)
		return
	}
	if isArray {
		s.runBatch(w, r, specs, baseSeed)
		return
	}
	n, hash, err := specs[0].Identify()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidScenario, "%v", err)
		return
	}
	seed := cmp.Or(n.Seed, baseSeed)
	c, err := s.RunCell(r.Context(), n, hash, seed)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeRunFailed,
			"%s (seed %d): %v", n.Describe(), seed, err)
		return
	}
	writeJSON(w, http.StatusOK, scenarioResponse{
		Name: n.Name, Hash: hash, Seed: seed, Cached: c.Cached,
		ElapsedUS: elapsedUS(c.Elapsed), Result: c.Result,
	})
}

// runBatch executes a scenario array on the engine stream and writes
// one NDJSON outcome line per scenario, in request order, as each
// completes.
func (s *Server) runBatch(w http.ResponseWriter, r *http.Request, specs []scenario.Scenario, baseSeed int64) {
	if len(specs) > MaxBatchScenarios {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"batch of %d scenarios exceeds the limit of %d", len(specs), MaxBatchScenarios)
		return
	}
	// Validate everything up front: a malformed batch fails whole,
	// before any simulation runs.
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidScenario, "scenarios[%d]: %v", i, err)
			return
		}
	}
	enc := json.NewEncoder(startNDJSON(w))
	next, index := 0, 0
	// The error is the client going away (a failed write stops the
	// stream); in-flight cells still complete into the cache.
	engine.StreamScenarios(r.Context(), engine.StreamOptions{
		Next: func() (scenario.Scenario, bool) {
			if next == len(specs) {
				return scenario.Scenario{}, false
			}
			next++
			return specs[next-1], true
		},
		BaseSeed: baseSeed,
		Parallel: s.parallel(),
		Runner:   s,
		Emit: func(o engine.ScenarioOutcome) error {
			line := scenarioLine{
				Index: index, Name: o.Scenario.Name, Hash: o.Hash, Seed: o.Seed,
				Cached: o.Cached, ElapsedUS: elapsedUS(o.Elapsed),
			}
			index++
			line.Error, line.Result = outcomeBody(o.Scenario, o.Seed, o.Result, o.Err)
			return enc.Encode(line)
		},
	})
}

// elapsedUS renders a cell's cost as the wire's elapsed_us.
func elapsedUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// outcomeBody splits one resolved cell into the line's error envelope
// or result: exactly one of the two is non-nil.
func outcomeBody(n scenario.Scenario, seed int64, res *scenario.Result, err error) (*errorBody, *scenario.Result) {
	if err != nil {
		return errBody(CodeRunFailed, "%s (seed %d): %v", n.Describe(), seed, err), nil
	}
	return nil, res
}

// flushWriter flushes the response after every Write. json.Encoder
// writes each value with one Write call, so every NDJSON line reaches
// the client as soon as it is encoded.
type flushWriter struct{ w http.ResponseWriter }

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// startNDJSON commits a 200 NDJSON response and returns its line
// writer.
func startNDJSON(w http.ResponseWriter) io.Writer {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	return flushWriter{w}
}

// parallel sizes the engine worker pool of the streaming routes: the
// simulation semaphore bounds real concurrency anyway, so match it.
func (s *Server) parallel() int {
	if s.sim.sem != nil {
		return cap(s.sim.sem)
	}
	return runtime.GOMAXPROCS(0)
}

// RunCell is the server's one per-cell resolver, behind every route
// that runs a scenario, and its engine.CellRunner: the engine stream
// that drives the batch and sweep routes fans cells out through it,
// reusing the hash the stream computes once per slot. It publishes (or
// joins) the (hash, seed) cache entry and fills it exactly once through
// engine.Resolve — the durable tier first, outside the simulation
// semaphore so a disk hit never queues behind running simulations,
// then the simulator. sync.Once blocks concurrent callers until the
// first finishes, so a coalesced caller waits there. The result carries
// the entry's cost; Cached reports whether the result was already
// complete in memory when the request arrived or came from the store —
// a coalesced waiter on an in-flight entry still pays the compute
// wall-clock.
//
// The computation is detached from the request's cancellation (the
// values are kept): entries are shared across requests, so a client
// that disconnects mid-run must not poison the cache with a context
// error that later, healthy clients would then be served. The
// simulation is short and completes into the cache either way —
// exactly what a retrying client wants.
func (s *Server) RunCell(ctx context.Context, n scenario.Scenario, hash string, seed int64) (engine.CellResult, error) {
	ent, cached := s.entry(cacheKey{Hash: hash, Seed: seed})
	ent.once.Do(func() {
		defer ent.finished.Store(true)
		ent.cell, ent.err = engine.Resolve(context.WithoutCancel(ctx), s.sim, s.store, n, hash, seed, &s.tally)
	})
	c := ent.cell
	c.Cached = c.Cached || cached
	return c, ent.err
}
