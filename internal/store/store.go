// Package store persists scenario results on disk, content-addressed
// by the same (scenario hash, seed) identity the serve layer's
// in-memory cache keys on. Results are immutable by the determinism
// contract — for a fixed spec and seed the result bytes never change —
// so the store needs no invalidation: an entry, once written, is valid
// forever, and any writer racing on the same key writes the same bytes.
//
// The directory implementation (Packed) wraps every result in a
// versioned envelope carrying a checksum of the result's canonical JSON
// encoding and appends it to a segment file; reads verify the checksum
// and the key before returning anything, so a truncated or bit-flipped
// record surfaces as an error instead of a wrong result, and a killed
// writer's torn tail is truncated away on the next open — the property
// sweep resume relies on. Pack migrates corpora written in the retired
// per-file layout.
//
// The engine (StreamScenarios), the sweep runner, and the HTTP serve
// layer all consult a Store before computing and persist after, turning
// every surface into one shared result corpus: a killed sweep resumes
// from the surviving cells, a restarted server warms its cache from
// disk, and CLI runs and CI share work.
package store

import (
	"context"
	"fmt"

	"ichannels/internal/scenario"
)

// EnvelopeVersion is the on-disk envelope format version. Bump it when
// the envelope shape changes; readers reject versions they don't know
// instead of guessing.
const EnvelopeVersion = 1

// Key identifies one immutable result: the scenario's content hash
// (scenario.Scenario.Hash, which excludes the display name and the
// seed) plus the effective seed the run used.
type Key struct {
	Hash string `json:"hash"`
	Seed int64  `json:"seed"`
}

// String renders the key the way CLI output and file names spell it.
func (k Key) String() string { return fmt.Sprintf("%s-%d", k.Hash, k.Seed) }

// Store is a pluggable result store. Implementations must be safe for
// concurrent use: the engine calls Get/Put from every worker.
type Store interface {
	// Get returns the stored result for key, ok=false on a clean miss.
	// A present-but-unreadable entry (corrupt envelope, checksum
	// mismatch) returns an error; callers typically treat that as a
	// miss and recompute — the determinism contract makes the
	// recomputed result identical to what the entry should have held.
	Get(key Key) (*scenario.Result, bool, error)
	// Put persists a result under key. Putting an existing key is a
	// no-op-equivalent overwrite: deterministic results make both
	// writes byte-identical.
	Put(key Key, res *scenario.Result) error
}

// writeOnly wraps a Store so every Get misses: results are persisted
// but never fetched. `sweep run -store DIR` without -resume uses it so
// a run both re-verifies determinism and (re)materializes the corpus.
type writeOnly struct{ Store }

func (w writeOnly) Get(Key) (*scenario.Result, bool, error) { return nil, false, nil }

// GetContext must also miss: without this override, a context-aware
// wrapped store's promoted GetContext would leak reads around the
// write-only veil.
func (w writeOnly) GetContext(context.Context, Key) (*scenario.Result, bool, error) {
	return nil, false, nil
}

// PutContext forwards writes through the context-aware path.
func (w writeOnly) PutContext(ctx context.Context, key Key, res *scenario.Result) error {
	return PutContext(ctx, w.Store, key, res)
}

// Close forwards lifecycle to the wrapped store (segment handles,
// replica flush queues): the veil hides reads, not resources.
func (w writeOnly) Close() error { return CloseStore(w.Store) }

// TierStats forwards the wrapped store's tier counters when it has any,
// so a write-only replica still reports its flush and retry activity.
func (w writeOnly) TierStats() TierStats {
	if t, ok := w.Store.(TierStatter); ok {
		return t.TierStats()
	}
	return TierStats{}
}

// WriteOnly returns a view of s that persists results but never serves
// reads from it.
func WriteOnly(s Store) Store {
	if s == nil {
		return nil
	}
	return writeOnly{s}
}
