// Package engine runs batches and streams of scenarios on a bounded
// worker pool, with per-scenario derived seeds, wall-clock timing
// capture, panic isolation, store fetch-or-compute, and context
// cancellation. It is the one execution path the CLI (scenario run, and
// run — its alias for registered experiments), sweeps, the distributed
// tier, and HTTP serving (internal/serve) build on. A registered figure
// experiment is a scenario like any other (scenario.FromExperiment).
//
// A batch (RunScenarios) collects every outcome; a stream
// (StreamScenarios) pulls scenarios lazily and emits outcomes in order
// with bounded memory.
//
// Determinism contract: the result content of a batch is a pure
// function of (BaseSeed, scenarios). The degree of parallelism affects
// only wall-clock time — for a fixed base seed, a run with Parallel=N
// produces results byte-identical (text, JSON and NDJSON renderings) to
// a serial run, because every scenario receives the same derived seed
// (DeriveScenarioSeed) and the simulator itself is deterministic for a
// fixed seed. Timing is captured outside the results so it never
// perturbs their bytes.
package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"time"

	"ichannels/internal/exp"
	"ichannels/internal/scenario"
	"ichannels/internal/store"
)

// ScenarioOptions configures a scenario batch run.
type ScenarioOptions struct {
	// Scenarios is the batch, in request order.
	Scenarios []scenario.Scenario
	// BaseSeed is the batch's master seed: scenarios whose Seed is zero
	// run with DeriveScenarioSeed(BaseSeed, spec), so the whole batch
	// replays identically while distinct specs stay decorrelated. A
	// non-zero spec Seed always wins (the spec is then fully pinned).
	BaseSeed int64
	// Parallel is the worker-pool size. Values below 1 mean serial.
	Parallel int
	// Runner executes each scenario (nil means scenario.Runner{}) —
	// see StreamOptions.Runner.
	Runner CellRunner
	// Store, when set, serves scenarios whose (hash, seed) result it
	// already holds and persists the rest — see StreamOptions.Store.
	Store store.Store
	// OnResult, when set, is called with each scenario's batch index and
	// outcome as it is emitted, in batch order (from the calling
	// goroutine) — cancelled slots included, so a caller can stream the
	// batch before RunScenarios returns.
	OnResult func(i int, o ScenarioOutcome)
}

// WithStore returns the options with the result store set — the fluent
// form the facade documents.
func (o ScenarioOptions) WithStore(st store.Store) ScenarioOptions {
	o.Store = st
	return o
}

// ScenarioOutcome is one scenario's slot in a batch.
type ScenarioOutcome struct {
	// Scenario is the normalized spec that ran.
	Scenario scenario.Scenario
	// Hash is the spec's content hash, computed once per outcome (the
	// store key, seed derivation, and sweep cell framing all reuse it).
	Hash string
	// Seed is the effective seed (spec seed or derived).
	Seed   int64
	Result *scenario.Result
	Err    error
	// Cached and Elapsed are the runner's CellResult fields, or the
	// store read's when the configured store served the cell: Cached
	// reports the result was not computed for this outcome (the bytes
	// are identical either way), Elapsed the cell's read or compute
	// cost, never time spent waiting.
	Cached  bool
	Elapsed time.Duration
}

// ScenarioBatch is the outcome of one scenario batch run. Outcomes are
// in request order regardless of completion order.
type ScenarioBatch struct {
	BaseSeed int64
	Results  []ScenarioOutcome
	// StreamStats is the batch stream's own tally: Parallel, Elapsed
	// (batch wall-clock, kept out of the per-result bytes), and the
	// store error split. Its Failed field is shadowed by the Failed
	// method, which also counts cancelled slots.
	StreamStats
}

// DeriveScenarioSeed maps a batch base seed and a scenario to the seed
// that scenario runs with when its spec pins none. Deriving from the
// content hash makes the seed independent of batch order and
// parallelism — part of the determinism contract. The result is always
// positive so a reported seed can be pinned back into a spec
// ("seed": N) and replayed: spec seeds are non-negative and zero means
// "default".
func DeriveScenarioSeed(base int64, s scenario.Scenario) int64 {
	return deriveSeedFromHash(base, s.Hash())
}

// deriveSeed maps a base seed and a label to a seed. The derivation
// (FNV-1a over the label, mixed with the base through a splitmix64
// finalizer) is stable across runs, platforms, and worker counts — it
// is part of the determinism contract, so changing it moves every
// derived seed and invalidates recorded baselines and stored corpora.
func deriveSeed(base int64, label string) int64 {
	h := fnv.New64a()
	io.WriteString(h, label)
	x := h.Sum64() ^ uint64(base)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// deriveSeedFromHash is DeriveScenarioSeed for callers that already
// hold the content hash (identify).
func deriveSeedFromHash(base int64, hash string) int64 {
	d := deriveSeed(base, "scenario:"+hash) & math.MaxInt64
	if d == 0 {
		d = 1
	}
	return d
}

// identify checks s through scenario.Identify and returns its cell's
// outcome slot: spec, hash, and seed (the spec's, else derived).
func identify(s scenario.Scenario, base int64) (ScenarioOutcome, error) {
	n, hash, err := s.Identify()
	if err != nil {
		return ScenarioOutcome{}, err
	}
	seed := n.Seed
	if seed == 0 {
		seed = deriveSeedFromHash(base, hash)
	}
	return ScenarioOutcome{Scenario: n, Hash: hash, Seed: seed}, nil
}

// RunScenarios executes a batch of scenarios and collects every
// outcome — a collect-all wrapper over the streaming core. It returns an
// error only for unrunnable requests (an invalid spec, which would fail
// identically on every retry): the whole batch is identified up front,
// once, so a malformed batch fails before any of it runs, naming its
// index. Individual run failures are recorded per-outcome and do not
// stop the batch. Cancelling the context abandons scenarios that have
// not started: their outcome slots carry the context error.
func RunScenarios(ctx context.Context, opts ScenarioOptions) (*ScenarioBatch, error) {
	b := &ScenarioBatch{
		BaseSeed: opts.BaseSeed,
		Results:  make([]ScenarioOutcome, len(opts.Scenarios)),
	}
	for i, s := range opts.Scenarios {
		o, err := identify(s, opts.BaseSeed)
		if err != nil {
			return nil, fmt.Errorf("scenarios[%d]: %w", i, err)
		}
		b.Results[i] = o
	}
	emitted := 0
	emit := func(o ScenarioOutcome) error {
		b.Results[emitted] = o
		if opts.OnResult != nil {
			opts.OnResult(emitted, o)
		}
		emitted++
		return nil
	}
	stats, err := stream(ctx, StreamOptions{
		Parallel: poolSize(opts.Parallel, len(b.Results)),
		Runner:   opts.Runner,
		Store:    opts.Store,
		Emit:     emit,
	}, b.Results)
	if err != nil {
		// Only cancellation stops this stream (the slots are identified
		// and emit never fails): fill the abandoned slots, still holding
		// their identity, with the context error.
		for emitted < len(b.Results) {
			o := b.Results[emitted]
			o.Err = err
			emit(o)
		}
	}
	b.StreamStats = *stats
	return b, nil
}

// poolSize clamps a requested parallelism to [1, n].
func poolSize(requested, n int) int {
	return max(1, min(requested, n))
}

// Failed returns the outcomes whose runner returned an error (or was
// cancelled), in batch order.
func (b *ScenarioBatch) Failed() []ScenarioOutcome {
	var out []ScenarioOutcome
	for _, r := range b.Results {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// scenarioOutcomeJSON is the wire form of one outcome. Timing and error
// live outside the result object so the result bytes stay deterministic.
type scenarioOutcomeJSON struct {
	Scenario  scenario.Scenario `json:"scenario"`
	Seed      int64             `json:"seed"`
	Cached    bool              `json:"cached"`
	ElapsedUS float64           `json:"elapsed_us"`
	Error     string            `json:"error,omitempty"`
	Result    *scenario.Result  `json:"result,omitempty"`
}

type scenarioBatchJSON struct {
	BaseSeed  int64                 `json:"base_seed"`
	Parallel  int                   `json:"parallel"`
	ElapsedUS float64               `json:"elapsed_us"`
	Failed    int                   `json:"failed"`
	Results   []scenarioOutcomeJSON `json:"results"`
}

func (b *ScenarioBatch) outcomeJSON(i int) scenarioOutcomeJSON {
	r := b.Results[i]
	oj := scenarioOutcomeJSON{
		Scenario:  r.Scenario,
		Seed:      r.Seed,
		Cached:    r.Cached,
		ElapsedUS: float64(r.Elapsed) / float64(time.Microsecond),
		Result:    r.Result,
	}
	if r.Err != nil {
		oj.Error = r.Err.Error()
	}
	return oj
}

// WriteJSON writes the machine-readable batch encoding. The "result"
// sub-objects are byte-identical across serial and parallel runs of the
// same base seed; the surrounding timing fields are wall-clock and vary.
func (b *ScenarioBatch) WriteJSON(w io.Writer) error {
	out := scenarioBatchJSON{
		BaseSeed:  b.BaseSeed,
		Parallel:  b.Parallel,
		ElapsedUS: float64(b.Elapsed) / float64(time.Microsecond),
		Failed:    len(b.Failed()),
		Results:   make([]scenarioOutcomeJSON, len(b.Results)),
	}
	for i := range b.Results {
		out.Results[i] = b.outcomeJSON(i)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteNDJSON writes one outcome object per line (no indentation): the
// input scenario, seed, cached flag, elapsed_us, and an error string or
// the result — the same objects WriteJSON puts in its "results" array.
// This is not the HTTP v1 array endpoint's framing: its lines carry
// index, name and hash in place of the scenario, and a structured error
// envelope. Both carry the same result bytes for the same seed.
func (b *ScenarioBatch) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range b.Results {
		if err := enc.Encode(b.outcomeJSON(i)); err != nil {
			return err
		}
	}
	return nil
}

// WriteText writes a comparison table of the batch: one row per
// scenario with the normalized envelope's headline numbers, followed by
// full report renderings for any experiment-role scenarios. The output
// depends only on (BaseSeed, Scenarios).
func (b *ScenarioBatch) WriteText(w io.Writer) error {
	tab := exp.Table{Header: []string{"scenario", "role", "seed", "bits", "throughput (b/s)", "BER", "verdict/extra"}}
	for i := range b.Results {
		r := &b.Results[i]
		if r.Err != nil {
			tab.AddRow(r.Scenario.Describe(), r.Scenario.Role, fmt.Sprint(r.Seed), "-", "-", "-", "ERROR: "+r.Err.Error())
			continue
		}
		res := r.Result
		last := res.Verdict
		if last == "" {
			if acc, ok := res.Extra["accuracy"]; ok {
				last = fmt.Sprintf("accuracy %.0f%%", acc*100)
			} else if res.DecodedPayload != "" {
				last = fmt.Sprintf("payload %q", res.DecodedPayload)
			}
		}
		tab.AddRow(r.Scenario.Describe(), res.Role, fmt.Sprint(r.Seed),
			fmt.Sprint(res.Bits), fmt.Sprintf("%.0f", res.ThroughputBPS),
			fmt.Sprintf("%.3f", res.BER), last)
	}
	if err := tab.WriteText(w); err != nil {
		return err
	}
	for i := range b.Results {
		r := &b.Results[i]
		if r.Err == nil && r.Result.Report != nil {
			if _, err := fmt.Fprintf(w, "\n%s", r.Result.Report.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteTiming writes a per-scenario wall-clock summary (intended for
// stderr, keeping stdout deterministic).
func (b *ScenarioBatch) WriteTiming(w io.Writer) {
	for i := range b.Results {
		r := &b.Results[i]
		status := "ok"
		if r.Err != nil {
			status = "FAIL: " + r.Err.Error()
		}
		fmt.Fprintf(w, "%-40s %10.2fms  seed %-20d %s\n",
			r.Scenario.Describe(), float64(r.Elapsed)/float64(time.Millisecond), r.Seed, status)
	}
	fmt.Fprintf(w, "%d scenarios, %d failed, parallel %d, %.2fms total\n",
		len(b.Results), len(b.Failed()), b.Parallel,
		float64(b.Elapsed)/float64(time.Millisecond))
}
