// Package dist is the distributed sweep tier: a coordinator that
// delegates scenario cells to remote workers over the HTTP v1 wire and
// verifies every returned result against the store's checksummed
// envelope format.
//
// The coordinator (Pool) implements engine.CellRunner, so it plugs into
// the same compute seam every local surface uses: StreamScenarios (and
// therefore sweeps, refinement passes, batches, and -resume) delegate
// each cell's compute to Pool.RunCell, which POSTs a CellDispatch to a
// worker's /v1/cells endpoint and decodes the response through
// store.DecodeEnvelope. Because the envelope carries the cell's
// (content hash, seed) identity and a checksum over the canonical
// result bytes, a byzantine worker that flips bytes, a stale worker
// whose normalization disagrees, or a truncated response is rejected
// exactly like a corrupt store entry — the cell is redispatched to
// another worker and, when the fleet is exhausted, recomputed locally.
// Either way the emitted bytes are the ones a serial local run
// produces: the determinism contract (serial == parallel == distributed
// bytes) extends across process and machine boundaries.
//
// Failure handling is coordinator-side only: workers are stateless
// cell servers (the serve package's worker endpoint over its
// single-flight (hash, seed) cache, the cross-node dedup layer).
// A worker that dies mid-sweep costs its in-flight cells one
// redispatch; a killed coordinator resumes from its result store
// exactly as `sweep run -resume` does today, because delegated
// successes are persisted by the engine like local ones.
package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"ichannels/internal/scenario"
)

// DispatchVersion is the coordinator↔worker wire version. Workers
// reject versions they don't know instead of guessing — a fleet can
// only be rolled forward once every worker understands the new frame.
const DispatchVersion = 1

// DispatchPath is the worker endpoint cells are POSTed to.
const DispatchPath = "/v1/cells"

// CellDispatch is the coordinator→worker wire frame for one cell: the
// normalized scenario spec, the effective seed, and the cell's content
// hash as the coordinator computed it. The hash is deliberately
// redundant — the worker recomputes it from the spec and rejects a
// mismatch, so a version-skewed worker whose normalization or hashing
// drifted is detected before it can serve results under the wrong
// identity.
type CellDispatch struct {
	V        int               `json:"v"`
	Hash     string            `json:"hash"`
	Seed     int64             `json:"seed"`
	Scenario scenario.Scenario `json:"scenario"`
}

// Validate's failure classes beyond a malformed frame, matched with
// errors.Is: an unrunnable scenario, and a hash this side does not
// compute from the scenario (coordinator/worker version skew).
var (
	ErrInvalidScenario = errors.New("dist: dispatch scenario")
	ErrHashMismatch    = errors.New("dist: dispatch hash does not match the scenario")
)

// Validate is the one check of a frame: a known version, a positive
// effective seed (derived seeds are always positive; zero would
// silently re-derive on the worker), a runnable scenario and a hash
// that matches it. It returns the normalized scenario to run.
func (d CellDispatch) Validate() (scenario.Scenario, error) {
	if d.V != DispatchVersion {
		return scenario.Scenario{}, fmt.Errorf("dist: dispatch version %d, want %d", d.V, DispatchVersion)
	}
	if d.Seed <= 0 {
		return scenario.Scenario{}, fmt.Errorf("dist: dispatch seed %d: effective seeds are positive", d.Seed)
	}
	n, h, err := d.Scenario.Identify()
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("%w: %w", ErrInvalidScenario, err)
	}
	if d.Hash != h {
		return scenario.Scenario{}, fmt.Errorf("%w: dispatched %q, this side computes %s (coordinator/worker version skew)", ErrHashMismatch, d.Hash, h)
	}
	return n, nil
}

// NewCellDispatch frames one cell for the wire.
func NewCellDispatch(s scenario.Scenario, hash string, seed int64) CellDispatch {
	return CellDispatch{V: DispatchVersion, Hash: hash, Seed: seed, Scenario: s}
}

// ParseCellDispatch strictly parses one coordinator→worker frame,
// rejecting unknown fields and trailing data — the same decoding
// discipline every other wire surface has, so a drifted coordinator
// cannot smuggle fields past an old worker silently.
func ParseCellDispatch(data []byte) (CellDispatch, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return CellDispatch{}, fmt.Errorf("dist: empty dispatch")
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	var d CellDispatch
	if err := dec.Decode(&d); err != nil {
		return CellDispatch{}, fmt.Errorf("dist: decoding dispatch: %w", err)
	}
	if dec.More() {
		return CellDispatch{}, fmt.Errorf("dist: trailing data after dispatch frame")
	}
	return d, nil
}
