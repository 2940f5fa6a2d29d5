package serve

import (
	"encoding/json"
	"net/http"

	"ichannels/internal/scenario"
	"ichannels/internal/sweep"
)

// CodeInvalidSweep is the structured error code for a rejected sweep
// spec.
const CodeInvalidSweep = "invalid_sweep"

// MaxSweepCellsPerRequest bounds how many cells one POST /v1/sweeps may
// run — the grid-shaped sibling of MaxBatchScenarios. A spec may raise
// its own max_cells to the scenario package's hard limit for CLI/Go
// use, but one HTTP request cannot monopolize a shared server with a
// 65k-cell grid.
const MaxSweepCellsPerRequest = 4096

func (s *Server) v1SweepSchema(w http.ResponseWriter, r *http.Request) {
	if !methodOnly(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(scenario.SweepSchemaJSON())
}

// sweepLine is one NDJSON line of a sweep response — the same framing
// as sweep.CellLine, with the error carried as a structured envelope.
// Cached marks a result served from the in-memory cache or the durable
// store. Exactly one of Error and Result is set.
type sweepLine struct {
	Index     int               `json:"index"`
	Name      string            `json:"name,omitempty"`
	Axes      map[string]string `json:"axes"`
	Hash      string            `json:"hash"`
	Seed      int64             `json:"seed"`
	Pass      int               `json:"pass,omitempty"`
	Cached    bool              `json:"cached"`
	ElapsedUS float64           `json:"elapsed_us"`
	Error     *errorBody        `json:"error,omitempty"`
	Result    *scenario.Result  `json:"result,omitempty"`
}

// v1Sweeps expands a sweep spec and streams it on the engine stream
// (sweep.Run): one NDJSON line per cell, in expansion order — preceded,
// for a refined sweep, by one pass-marker line per refinement pass, the
// pass's cells following in the controller's deterministic hash order —
// then a final aggregate envelope ({"aggregate": …}, plus the
// refinement record when adaptive) whose bytes match `ichannels sweep
// run -ndjson` for the same spec and seed. Every cell resolves through
// the server-wide (scenario hash, seed) single-flight cache and the
// durable store underneath it, so re-posting a sweep — or posting one
// that overlaps earlier requests — recomputes nothing.
func (s *Server) v1Sweeps(w http.ResponseWriter, r *http.Request) {
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
	sw, err := scenario.ParseSweep(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding sweep: %v (see /v1/sweeps/schema)", err)
		return
	}
	nsw := sw.Normalized()
	// One pass validates the structure and every cell, and yields the
	// post-filter size for the per-request limit.
	cells, err := nsw.CountCells()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSweep, "%v", err)
		return
	}
	if cells > MaxSweepCellsPerRequest {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"sweep expands to %d cells, above the per-request limit of %d (split the grid or run it via the CLI)",
			cells, MaxSweepCellsPerRequest)
		return
	}

	out := startNDJSON(w)
	enc := json.NewEncoder(out)
	res, err := sweep.Run(r.Context(), nsw, sweep.Options{
		BaseSeed: baseSeed,
		Parallel: s.parallel(),
		Runner:   s,
		OnPass:   func(p sweep.PassStats) error { return sweep.WritePassLine(out, p) },
		OnCell: func(o sweep.CellOutcome) error {
			line := sweepLine{
				Index: o.Cell.Index, Name: o.Cell.Scenario.Name, Axes: o.Cell.Axes,
				Hash: o.Hash, Seed: o.Seed, Pass: o.Pass,
				Cached: o.Cached, ElapsedUS: elapsedUS(o.Elapsed),
			}
			line.Error, line.Result = outcomeBody(o.Cell.Scenario, o.Seed, o.Result, o.Err)
			return enc.Encode(line)
		},
	})
	if err != nil {
		// The stream has started; ending it early (client disconnect,
		// write failure) is the safe degradation — in-flight cells
		// still complete into the cache for the next request.
		return
	}
	res.WriteAggregateLine(out)
}
