package main

import (
	"sync/atomic"
	"time"

	"ichannels"
)

// tracedStore adds up the time the engine or the server spends in the
// result store. Traced runs only: the wrapper hides the store's
// optional interfaces, so untraced runs use the store as it is.
type tracedStore struct {
	inner ichannels.ResultStore
	ns    atomic.Int64
}

func (s *tracedStore) Get(k ichannels.ResultStoreKey) (*ichannels.ScenarioResult, bool, error) {
	defer s.since(time.Now())
	return s.inner.Get(k)
}

func (s *tracedStore) Put(k ichannels.ResultStoreKey, res *ichannels.ScenarioResult) error {
	defer s.since(time.Now())
	return s.inner.Put(k, res)
}

func (s *tracedStore) since(t0 time.Time) { s.ns.Add(int64(time.Since(t0))) }

// total is the time spent in the store so far (0 for a nil store).
func (s *tracedStore) total() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.ns.Load())
}

// readOnly serves a corpus but drops writes, so a resumed sweep leaves
// the corpus as it found it and the next resume does the same work.
type readOnly struct{ ichannels.ResultStore }

func (readOnly) Put(ichannels.ResultStoreKey, *ichannels.ScenarioResult) error { return nil }

// layers is what a traced run measured of each layer. Times are summed
// over the measured ops; lane is the op time the shares are taken of:
// each op's duration times the cells it runs at once.
type layers struct {
	opLatencies []time.Duration
	lane        time.Duration
	compute     time.Duration   // simulating cells
	store       time.Duration   // result-store calls
	pipeline    time.Duration   // the sweep engine or server handler outside cells
	http        time.Duration   // the HTTP exchange outside the server handler
	queue       time.Duration   // open-loop requests waiting to be sent
	cellP50     time.Duration   // one cell: a sweep slot, or a server handler call
	computeDurs []time.Duration // one per simulated cell

	computed, cached            int // cells simulated vs served without simulation
	machinesBuilt, machinesUsed int // soc machine pool: built fresh vs recycled
	lateSends                   int // open-loop sends more than lateAfter late
}

func (l *layers) metrics() map[string]metric {
	pct := func(d time.Duration) float64 {
		if l.lane <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(l.lane)
	}
	return map[string]metric{
		"traced_latency_p50_ms": {ms(percentile(l.opLatencies, 50)), "ms"},
		"cell_p50_us":           {us(l.cellP50), "us"},
		"compute_p50_us":        {us(percentile(l.computeDurs, 50)), "us"},
		"compute_pct":           {pct(l.compute), "%"},
		"store_pct":             {pct(l.store), "%"},
		"pipeline_pct":          {pct(l.pipeline), "%"},
		"http_pct":              {pct(l.http), "%"},
		"queue_pct":             {pct(l.queue), "%"},
		"cells_computed":        {float64(l.computed), "count"},
		"cells_cached":          {float64(l.cached), "count"},
		"machines_built":        {float64(l.machinesBuilt), "count"},
		"machines_reused":       {float64(l.machinesUsed), "count"},
		"late_sends":            {float64(l.lateSends), "count"},
	}
}
