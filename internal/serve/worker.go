package serve

import (
	"errors"
	"net/http"

	"ichannels/internal/dist"
	"ichannels/internal/store"
)

// CodeHashMismatch is the structured error code a worker answers when
// the dispatched content hash does not match the hash it computes from
// the same spec — coordinator/worker version skew (drifted
// normalization or hashing). The coordinator quarantines the worker:
// results computed under a disputed identity must never enter the
// corpus.
const CodeHashMismatch = "hash_mismatch"

// v1Cells is the distributed tier's worker endpoint: POST /v1/cells
// accepts one dist.CellDispatch frame, runs the cell through the same
// single-flight (hash, seed) cache every other route shares — so a
// fleet of coordinators deduplicates across nodes, and the durable
// store stays the shared corpus — and answers with the store's
// checksummed envelope encoding of the result. The coordinator verifies
// that envelope with store.DecodeEnvelope, which is what makes a
// byzantine or truncating transport detectable.
func (s *Server) v1Cells(w http.ResponseWriter, r *http.Request) {
	if !methodOnly(w, r, http.MethodPost) {
		return
	}
	if !requireJSON(w, r) {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	d, err := dist.ParseCellDispatch(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v (wire version %d)", err, dist.DispatchVersion)
		return
	}
	n, err := d.Validate()
	if err != nil {
		status, code := http.StatusBadRequest, CodeBadRequest
		switch {
		case errors.Is(err, dist.ErrHashMismatch):
			status, code = http.StatusConflict, CodeHashMismatch
		case errors.Is(err, dist.ErrInvalidScenario):
			code = CodeInvalidScenario
		}
		writeError(w, status, code, "%v", err)
		return
	}
	c, err := s.RunCell(r.Context(), n, d.Hash, d.Seed)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeRunFailed,
			"%s (seed %d): %v", n.Describe(), d.Seed, err)
		return
	}
	env, err := store.EncodeEnvelope(store.Key{Hash: d.Hash, Seed: d.Seed}, c.Result)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeRunFailed,
			"encoding result envelope: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(env)
}
