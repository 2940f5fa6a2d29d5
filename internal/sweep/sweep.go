// Package sweep executes declarative parameter grids (scenario.Sweep)
// and reduces their per-cell results into the paper's table shapes:
// grouped aggregates of BER, throughput, and simulated time over any
// subset of the sweep's axes.
//
// Execution streams: cells are expanded lazily (scenario.CellIterator),
// run through the engine's bounded-memory streaming core
// (engine.StreamScenarios), and folded into the aggregator as they
// complete — peak memory is O(workers + window), not O(grid). Only
// compact per-cell summaries (a handful of scalars each) and the
// aggregate's metric samples are retained; the full result envelopes
// (bit streams included) are handed to the OnCell hook and dropped.
//
// Determinism: for a fixed (sweep, base seed) the cell order, every
// per-cell result, and the aggregate table's JSON encoding are
// byte-identical at any parallelism — the same contract the scenario
// layer has, extended over grids. The HTTP layer (POST /v1/sweeps) and
// the CLI (ichannels sweep run) both end in Table, so their aggregate
// output is comparable byte-for-byte.
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"ichannels/internal/engine"
	"ichannels/internal/exp"
	"ichannels/internal/scenario"
	"ichannels/internal/soc"
	"ichannels/internal/stats"
	"ichannels/internal/store"
)

// Options configures a sweep run.
type Options struct {
	// BaseSeed derives per-cell seeds for cells whose spec pins none
	// (the sweep base's pinned seed wins, like any scenario batch).
	BaseSeed int64
	// Parallel is the worker-pool size. Values below 1 mean serial.
	Parallel int
	// Window bounds the engine's reorder buffer (0 = engine default).
	Window int
	// Runner executes each cell — the hash-aware compute seam
	// (engine.StreamOptions.Runner). Nil gets scenario.Runner over a
	// fresh machine pool per Run (most grid cells share a few machine
	// shapes, so reuse is the normal case; one pool spans every
	// refinement pass). Setting it to a dist.Pool makes the sweep
	// distributed: cells are dispatched to remote workers and verified,
	// with byte-identical output. The store wrapping still applies, so
	// -resume and the shared corpus work unchanged, and refinement
	// passes inherit the same runner.
	Runner engine.CellRunner
	// Store, when set, serves cells whose (hash, seed) result it
	// already holds (marked Cached) and persists freshly computed ones
	// — how a killed sweep resumes from its surviving cells. See
	// engine.StreamOptions.Store.
	Store store.Store
	// OnCell, when set, receives each cell outcome in expansion order
	// (with the full result envelope) as it completes — the streaming
	// hook the CLI's NDJSON mode and the HTTP layer print from. A
	// non-nil error stops the sweep.
	OnCell func(CellOutcome) error
	// OnPass, when set on a refined sweep, receives each pass's
	// deterministic header before any of its cells stream — the hook
	// behind the NDJSON pass markers. Never called for dense sweeps. A
	// non-nil error stops the sweep.
	OnPass func(PassStats) error
}

// WithStore returns the options with the result store set — the fluent
// form the facade documents.
func (o Options) WithStore(st store.Store) Options {
	o.Store = st
	return o
}

// CellOutcome is one completed grid cell: the cell (normalized spec +
// axis labels), its content hash (computed once per cell), the
// effective seed, and the run's result or error. Cached and Elapsed are
// the engine outcome's (engine.ScenarioOutcome): whether the store or
// the runner served the result without computing it, and the cell's
// read or compute cost. Pass is the refinement pass that computed the
// cell (0 for dense sweeps and the coarse pass).
type CellOutcome struct {
	Cell    scenario.Cell
	Hash    string
	Seed    int64
	Pass    int
	Result  *scenario.Result
	Err     error
	Cached  bool
	Elapsed time.Duration
}

// CellSummary is the compact, envelope-free record of one cell that a
// completed run retains: identity, coordinates, and headline metrics.
type CellSummary struct {
	Index int               `json:"index"`
	Name  string            `json:"name,omitempty"`
	Axes  map[string]string `json:"axes"`
	Hash  string            `json:"hash"`
	Seed  int64             `json:"seed"`
	Pass  int               `json:"pass,omitempty"`
	Bits  int               `json:"bits,omitempty"`
	// ThroughputBPS/BER/Verdict are zero/empty when Error is set.
	ThroughputBPS float64 `json:"throughput_bps,omitempty"`
	BER           float64 `json:"ber"`
	Verdict       string  `json:"verdict,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// Result is the outcome of one sweep run.
type Result struct {
	// Hash is the sweep's content hash; BaseSeed the batch master seed.
	Hash     string `json:"hash"`
	BaseSeed int64  `json:"base_seed"`
	// Parallel is the effective worker count (wall-clock only; the
	// deterministic payload is Cells/Aggregate).
	Parallel int `json:"parallel"`
	// Cells holds one compact summary per executed cell, in order.
	Cells []CellSummary `json:"cells"`
	// Failed counts cells whose runner returned an error.
	Failed int `json:"failed"`
	// Cached counts cells served from the result store instead of
	// computed (wall-clock metadata: the cell bytes are identical
	// either way).
	Cached int `json:"cached"`
	// Aggregate is the grouped reduction of the successful cells.
	Aggregate *Table `json:"aggregate"`
	// Refinement records the adaptive run's shape (nil for dense runs):
	// passes, cells computed, and the dense-grid equivalent. Like the
	// aggregate it is a pure function of (sweep, base seed).
	Refinement *RefinementStats `json:"refinement,omitempty"`
	// Elapsed is the sweep wall-clock time (nondeterministic).
	Elapsed time.Duration `json:"-"`
	// StoreTransient and StorePermanent count failed store operations
	// across the run (unreadable entries recomputed, failed writes) by
	// failure class: network blip vs corrupt envelope. Wall-clock
	// metadata — a degraded store changes timing, never bytes.
	StoreTransient int `json:"-"`
	StorePermanent int `json:"-"`
	// MachinesConstructed and MachinesReused count how many simulated
	// machines the default executor's pool built from scratch vs
	// recycled, over every pass. Zero when Options.Runner overrides
	// the executor. Wall-clock metadata: reuse never changes the cell
	// bytes.
	MachinesConstructed int `json:"-"`
	MachinesReused      int `json:"-"`
}

// Run expands and executes a sweep, streaming cells through the engine
// worker pool and reducing them on the fly. A sweep with a refine block
// runs adaptively (see scenario.Refine); every other sweep runs its
// dense grid. It returns an error for an unrunnable sweep (invalid
// spec) or a stopped stream (OnCell error); per-cell failures land in
// the summaries/Failed and do not stop the grid.
func Run(ctx context.Context, sw scenario.Sweep, opts Options) (*Result, error) {
	nsw := sw.Normalized()
	// Two expansion passes by design: the pre-flight validates every
	// cell so a doomed grid fails before any simulation runs (the batch
	// fail-whole contract), then the execution pass streams. Spec-level
	// work is microseconds per cell against milliseconds of simulation,
	// so the duplication is noise.
	cells, err := nsw.CountCells()
	if err != nil {
		return nil, err
	}
	if nsw.Refine != nil {
		return runRefined(ctx, nsw, opts)
	}
	it, err := nsw.Cells()
	if err != nil {
		return nil, err
	}
	st := newExecState(nsw, opts)
	st.res.Cells = make([]CellSummary, 0, cells)
	if err := st.execute(ctx, it.Next, 0); err != nil {
		return nil, err
	}
	return st.finish(), nil
}

// execState accumulates one sweep run across its execution passes (one
// for a dense grid, several for a refined one).
type execState struct {
	opts     Options
	machines *soc.Pool // the default executor's pool; nil under a Runner override
	agg      *Aggregator
	res      *Result
}

func newExecState(nsw scenario.Sweep, opts Options) *execState {
	st := &execState{
		opts: opts,
		agg:  NewAggregator(nsw.EffectiveGroupBy()),
		res:  &Result{Hash: nsw.Hash(), BaseSeed: opts.BaseSeed},
	}
	// Machine reuse is on by default: one pool spans every execution
	// pass, so a refined sweep's later passes run almost entirely on
	// recycled machines. A Runner override brings its own compute path
	// and gets no pool.
	if opts.Runner == nil {
		st.machines = soc.NewPool()
		st.opts.Runner = engine.ScenarioRunFunc(scenario.Runner{Machines: st.machines}.RunCell)
	}
	return st
}

// execute streams the cells yielded by next through the engine worker
// pool, folding each outcome into the summaries and the aggregator.
// pass labels the outcomes (0 for dense sweeps and the coarse pass).
func (st *execState) execute(ctx context.Context, next func() (scenario.Cell, bool, error), pass int) error {
	opts := st.opts
	// Cells emit in dispatch order, so a FIFO of pending cells pairs
	// each emitted outcome back with its axis labels; its length is
	// bounded by the engine window. Next runs on the engine's
	// dispatcher goroutine and Emit on the caller's, so the queue is
	// mutex-guarded.
	var (
		queueMu   sync.Mutex
		cellQueue = newCellFIFO(engine.StreamWindow(opts.Parallel, opts.Window))
		iterErr   error
	)
	stats, err := engine.StreamScenarios(ctx, engine.StreamOptions{
		Next: func() (scenario.Scenario, bool) {
			cell, ok, err := next()
			if err != nil {
				iterErr = err
				return scenario.Scenario{}, false
			}
			if !ok {
				return scenario.Scenario{}, false
			}
			queueMu.Lock()
			cellQueue.push(cell)
			queueMu.Unlock()
			return cell.Scenario, true
		},
		BaseSeed: opts.BaseSeed,
		Parallel: opts.Parallel,
		Window:   opts.Window,
		Runner:   opts.Runner,
		Store:    opts.Store,
		Emit: func(o engine.ScenarioOutcome) error {
			queueMu.Lock()
			cell := cellQueue.pop()
			queueMu.Unlock()
			out := CellOutcome{Cell: cell, Hash: o.Hash, Seed: o.Seed, Pass: pass, Result: o.Result, Err: o.Err, Cached: o.Cached, Elapsed: o.Elapsed}
			s := CellSummary{
				Index: cell.Index, Name: cell.Scenario.Name, Axes: cell.Axes,
				Hash: o.Hash, Seed: o.Seed, Pass: pass,
			}
			if o.Err != nil {
				s.Error = o.Err.Error()
			} else {
				s.Bits = o.Result.Bits
				s.ThroughputBPS = o.Result.ThroughputBPS
				s.BER = o.Result.BER
				s.Verdict = o.Result.Verdict
			}
			st.res.Cells = append(st.res.Cells, s)
			st.agg.Add(cell.Axes, o.Result, o.Err)
			if opts.OnCell != nil {
				return opts.OnCell(out)
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	if iterErr != nil {
		return iterErr
	}
	st.res.Parallel = stats.Parallel
	st.res.Failed += stats.Failed
	st.res.Cached += stats.Cached
	st.res.StoreTransient += stats.StoreTransient
	st.res.StorePermanent += stats.StorePermanent
	st.res.Elapsed += stats.Elapsed
	return nil
}

// cellFIFO is the pending-cell queue: one slice consumed from its front
// and compacted before an append would grow it.
type cellFIFO struct {
	buf  []scenario.Cell
	head int
}

// newCellFIFO sizes the queue for a stream with the given reorder
// window, so it never grows: at most the window's slots, the one the
// engine is emitting and the one it is dispatching are pending at once.
func newCellFIFO(window int) cellFIFO {
	return cellFIFO{buf: make([]scenario.Cell, 0, window+2)}
}

func (q *cellFIFO) push(c scenario.Cell) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, c)
}

func (q *cellFIFO) pop() scenario.Cell {
	c := q.buf[q.head]
	q.buf[q.head] = scenario.Cell{}
	q.head++
	return c
}

// finish renders the run's aggregate, reads the machine pool's
// lifetime counters (the whole run's total across passes), and returns
// the result.
func (st *execState) finish() *Result {
	st.res.Aggregate = st.agg.Table(st.res.Hash, st.opts.BaseSeed)
	if st.machines != nil {
		ps := st.machines.Stats()
		st.res.MachinesConstructed, st.res.MachinesReused = int(ps.Constructed), int(ps.Reused)
	}
	return st.res
}

// ---- grouped reduction ----

// Metric is the deterministic summary of one metric across a group's
// successful cells.
type Metric struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
}

// metricOf reduces samples via the stats toolkit.
func metricOf(xs []float64) Metric {
	if len(xs) == 0 {
		return Metric{}
	}
	s := stats.Summarize(xs)
	return Metric{Mean: s.Mean, Min: s.Min, Max: s.Max, P50: s.P50, P95: s.P95}
}

// Group is one row of the aggregate table: the grouped axis values and
// the reduced metrics of every successful cell that matched them.
type Group struct {
	// Key maps each grouped axis to its value (encoding/json emits map
	// keys sorted, keeping the row deterministic).
	Key map[string]string `json:"key"`
	// Cells counts the group's cells; Errors how many of them failed
	// (failed cells contribute to no metric).
	Cells  int `json:"cells"`
	Errors int `json:"errors"`
	// BER, ThroughputBPS and ElapsedSimUS summarize the successful
	// cells' normalized envelopes.
	BER           Metric `json:"ber"`
	ThroughputBPS Metric `json:"throughput_bps"`
	ElapsedSimUS  Metric `json:"elapsed_sim_us"`
}

// Table is the aggregate of one sweep run — the paper-table-shaped
// reduction both the CLI and POST /v1/sweeps emit. Its JSON encoding is
// a pure function of (sweep, base seed).
type Table struct {
	Hash     string   `json:"hash"`
	BaseSeed int64    `json:"base_seed"`
	GroupBy  []string `json:"group_by"`
	Cells    int      `json:"cells"`
	Errors   int      `json:"errors"`
	Groups   []Group  `json:"groups"`
}

// groupAcc accumulates one group's samples.
type groupAcc struct {
	key    map[string]string
	cells  int
	errors int
	ber    []float64
	bps    []float64
	simUS  []float64
}

// Aggregator folds cell outcomes into grouped metric summaries. It
// retains three float64 samples per successful cell (needed for the
// percentiles) and nothing else — no result envelopes.
type Aggregator struct {
	groupBy []string
	groups  map[string]*groupAcc
	cells   int
	errors  int
	idBuf   []byte // scratch for looking a cell's group up
}

// NewAggregator builds an aggregator grouping by the given axis names
// (empty means one grand-total group).
func NewAggregator(groupBy []string) *Aggregator {
	return &Aggregator{groupBy: groupBy, groups: map[string]*groupAcc{}}
}

// groupID encodes a cell's group_by coordinates as the aggregator's
// (and the refinement controller's) canonical group key.
func groupID(groupBy []string, axes map[string]string) string {
	return string(appendGroupID(nil, groupBy, axes))
}

// appendGroupID appends groupID's encoding to dst.
func appendGroupID(dst []byte, groupBy []string, axes map[string]string) []byte {
	for _, g := range groupBy {
		dst = append(dst, g...)
		dst = append(dst, 0)
		dst = append(dst, axes[g]...)
		dst = append(dst, 0)
	}
	return dst
}

// Add folds one cell outcome in. axes labels the cell's coordinates;
// res may be nil when err is set (the cell still counts, toward Errors).
func (a *Aggregator) Add(axes map[string]string, res *scenario.Result, err error) {
	a.idBuf = appendGroupID(a.idBuf[:0], a.groupBy, axes)
	acc := a.groups[string(a.idBuf)]
	if acc == nil {
		key := make(map[string]string, len(a.groupBy))
		for _, g := range a.groupBy {
			key[g] = axes[g]
		}
		acc = &groupAcc{key: key}
		a.groups[string(a.idBuf)] = acc
	}
	acc.cells++
	a.cells++
	if err != nil || res == nil {
		acc.errors++
		a.errors++
		return
	}
	acc.ber = append(acc.ber, res.BER)
	acc.bps = append(acc.bps, res.ThroughputBPS)
	acc.simUS = append(acc.simUS, res.ElapsedSimUS)
}

// Table renders the aggregate: groups sorted by their grouped values in
// group-by order, each metric reduced deterministically.
func (a *Aggregator) Table(hash string, baseSeed int64) *Table {
	ids := make([]string, 0, len(a.groups))
	for id := range a.groups {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	t := &Table{
		Hash: hash, BaseSeed: baseSeed,
		GroupBy: append([]string{}, a.groupBy...),
		Cells:   a.cells, Errors: a.errors,
		Groups: make([]Group, 0, len(ids)),
	}
	for _, id := range ids {
		acc := a.groups[id]
		t.Groups = append(t.Groups, Group{
			Key: acc.key, Cells: acc.cells, Errors: acc.errors,
			BER:           metricOf(acc.ber),
			ThroughputBPS: metricOf(acc.bps),
			ElapsedSimUS:  metricOf(acc.simUS),
		})
	}
	return t
}

// CellLine is the NDJSON wire form of one streamed cell outcome — what
// the CLI's -ndjson mode emits per cell, field-for-field the framing
// POST /v1/sweeps streams (the HTTP layer carries its errors as a
// structured envelope instead of a string). Cached and elapsed_us are
// wall-clock serving metadata; everything else is the deterministic
// payload.
type CellLine struct {
	Index     int               `json:"index"`
	Name      string            `json:"name,omitempty"`
	Axes      map[string]string `json:"axes"`
	Hash      string            `json:"hash"`
	Seed      int64             `json:"seed"`
	Pass      int               `json:"pass,omitempty"`
	Cached    bool              `json:"cached"`
	ElapsedUS float64           `json:"elapsed_us"`
	Error     string            `json:"error,omitempty"`
	Result    *scenario.Result  `json:"result,omitempty"`
}

// LineOf converts a cell outcome to its NDJSON line form.
func LineOf(o CellOutcome) CellLine {
	l := CellLine{
		Index: o.Cell.Index, Name: o.Cell.Scenario.Name, Axes: o.Cell.Axes,
		Hash: o.Hash, Seed: o.Seed, Pass: o.Pass, Cached: o.Cached,
		ElapsedUS: float64(o.Elapsed) / float64(time.Microsecond),
	}
	if o.Err != nil {
		l.Error = o.Err.Error()
	} else {
		l.Result = o.Result
	}
	return l
}

// passLine frames a refinement pass header as an NDJSON marker line —
// emitted before the pass's cells by both the CLI's -ndjson mode and
// POST /v1/sweeps.
type passLine struct {
	Pass PassStats `json:"pass"`
}

// WritePassLine writes one pass marker's NDJSON framing.
func WritePassLine(w io.Writer, p PassStats) error {
	return json.NewEncoder(w).Encode(passLine{Pass: p})
}

// aggregateLine frames the aggregate as the final NDJSON line of a
// sweep stream; the HTTP layer emits the identical framing, so the
// trailing line of `ichannels sweep run -ndjson` and of POST /v1/sweeps
// are byte-comparable. Refined sweeps carry their refinement record
// (cells computed vs the dense grid) in the same line.
type aggregateLine struct {
	Aggregate  *Table           `json:"aggregate"`
	Refinement *RefinementStats `json:"refinement,omitempty"`
}

// WriteAggregateLine writes the aggregate's NDJSON framing (dense
// sweeps; refined runs use Result.WriteAggregateLine).
func WriteAggregateLine(w io.Writer, t *Table) error {
	return json.NewEncoder(w).Encode(aggregateLine{Aggregate: t})
}

// WriteAggregateLine writes the run's trailing NDJSON line: the
// aggregate, plus the refinement record when the run was adaptive.
func (r *Result) WriteAggregateLine(w io.Writer) error {
	return json.NewEncoder(w).Encode(aggregateLine{Aggregate: r.Aggregate, Refinement: r.Refinement})
}

// WriteJSON writes the machine-readable sweep result: the compact cell
// summaries plus the aggregate (no bit streams — use -ndjson or the
// HTTP stream for full envelopes).
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText writes the human sweep rendering: the per-cell comparison
// rows followed by the grouped aggregate. Deterministic for a fixed
// (sweep, base seed).
func (r *Result) WriteText(w io.Writer) error {
	tab := exp.Table{Header: []string{"cell", "hash", "seed", "bits", "throughput (b/s)", "BER", "verdict/error"}}
	for _, c := range r.Cells {
		last := c.Verdict
		if c.Error != "" {
			last = "ERROR: " + c.Error
		}
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("cell %d", c.Index)
		}
		row := []string{name, c.Hash, fmt.Sprint(c.Seed)}
		if c.Error != "" {
			row = append(row, "-", "-", "-", last)
		} else {
			row = append(row, fmt.Sprint(c.Bits), fmt.Sprintf("%.0f", c.ThroughputBPS),
				fmt.Sprintf("%.3f", c.BER), last)
		}
		tab.AddRow(row...)
	}
	if err := tab.WriteText(w); err != nil {
		return err
	}
	if ref := r.Refinement; ref != nil {
		if _, err := fmt.Fprintf(w, "\nrefined on %s (threshold %g): %d of %d dense cells over %d passes\n",
			ref.Metric, ref.Threshold, ref.CellsComputed, ref.DenseCells, len(ref.Passes)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\naggregate (group by %s):\n", strings.Join(r.Aggregate.GroupBy, ", ")); err != nil {
		return err
	}
	return r.Aggregate.WriteText(w)
}

// WriteTiming writes a wall-clock summary (intended for stderr).
func (r *Result) WriteTiming(w io.Writer) {
	refined := ""
	if ref := r.Refinement; ref != nil {
		refined = fmt.Sprintf(" (refined: %d/%d dense)", ref.CellsComputed, ref.DenseCells)
	}
	machines := ""
	if r.MachinesConstructed > 0 || r.MachinesReused > 0 {
		machines = fmt.Sprintf(", machines %d built/%d reused", r.MachinesConstructed, r.MachinesReused)
	}
	fmt.Fprintf(w, "sweep %s: %d cells%s, %d failed, %d cached%s, parallel %d, %.2fms total\n",
		r.Hash, len(r.Cells), refined, r.Failed, r.Cached, machines, r.Parallel,
		float64(r.Elapsed)/float64(time.Millisecond))
}

// WriteText renders the aggregate as an aligned comparison table: one
// row per group with cell counts and the headline reductions. The
// output depends only on (sweep, base seed).
func (t *Table) WriteText(w io.Writer) error {
	header := append([]string{}, t.GroupBy...)
	if len(header) == 0 {
		header = []string{"(all)"}
	}
	header = append(header, "cells", "errors", "BER mean", "BER p95", "b/s mean", "b/s p95")
	tab := exp.Table{Header: header}
	for _, g := range t.Groups {
		row := make([]string, 0, len(header))
		if len(t.GroupBy) == 0 {
			row = append(row, "*")
		}
		for _, axis := range t.GroupBy {
			row = append(row, g.Key[axis])
		}
		row = append(row,
			fmt.Sprint(g.Cells), fmt.Sprint(g.Errors),
			fmt.Sprintf("%.3f", g.BER.Mean), fmt.Sprintf("%.3f", g.BER.P95),
			fmt.Sprintf("%.0f", g.ThroughputBPS.Mean), fmt.Sprintf("%.0f", g.ThroughputBPS.P95),
		)
		tab.AddRow(row...)
	}
	return tab.WriteText(w)
}
