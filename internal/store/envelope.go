package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"ichannels/internal/scenario"
)

// envelope is the on-disk form of one entry. Result is kept as the raw
// canonical JSON encoding so the checksum covers exactly the bytes a
// consumer re-marshals — the byte-identity contract extends through a
// store round-trip.
type envelope struct {
	Version  int             `json:"version"`
	Hash     string          `json:"hash"`
	Seed     int64           `json:"seed"`
	Checksum string          `json:"checksum"`
	Result   json.RawMessage `json:"result"`
}

// tmpPrefix marks in-progress sidecar writes; GC removes
// leftovers from killed processes.
const tmpPrefix = ".tmp-"

// checksumOf hashes the canonical result bytes the way envelopes record
// them.
func checksumOf(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// EncodeEnvelope wraps a result in the versioned, checksummed envelope
// the store persists — and the byte format the distributed tier ships
// over the wire: a worker answers a cell dispatch with exactly these
// bytes, and the coordinator accepts them only through DecodeEnvelope,
// so a byzantine or stale worker is detected by the same integrity
// check a corrupt disk entry is.
func EncodeEnvelope(key Key, res *scenario.Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("store: encode %s: nil result", key)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("store: encode %s: %w", key, err)
	}
	env := envelope{
		Version: EnvelopeVersion, Hash: key.Hash, Seed: key.Seed,
		Checksum: checksumOf(raw), Result: raw,
	}
	data, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("store: encode %s: %w", key, err)
	}
	return data, nil
}

// DecodeEnvelope validates one envelope's bytes against the key the
// caller expects — version, identity, and result checksum — and returns
// the result. It is the read half of EncodeEnvelope, shared by the
// packed store's record check, BackendStore, `store pack`, the share
// route's PUT and the distributed coordinator (worker-response
// verification). Every failure is tagged with ErrCorrupt: the bytes
// themselves are wrong, so no amount of retrying the same source helps
// — callers classify these as permanent.
func DecodeEnvelope(key Key, data []byte) (*scenario.Result, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, markCorrupt(fmt.Errorf("store: entry %s: malformed envelope: %w", key, err))
	}
	if env.Version != EnvelopeVersion {
		return nil, markCorrupt(fmt.Errorf("store: entry %s: envelope version %d, want %d", key, env.Version, EnvelopeVersion))
	}
	if env.Hash != key.Hash || env.Seed != key.Seed {
		return nil, markCorrupt(fmt.Errorf("store: entry %s: envelope identifies %s-%d (renamed file?)", key, env.Hash, env.Seed))
	}
	if got := checksumOf(env.Result); got != env.Checksum {
		return nil, markCorrupt(fmt.Errorf("store: entry %s: checksum mismatch (corrupt result payload)", key))
	}
	var res scenario.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return nil, markCorrupt(fmt.Errorf("store: entry %s: malformed result: %w", key, err))
	}
	return &res, nil
}

// Entry describes one stored result for listings.
type Entry struct {
	Key  Key   `json:"key"`
	Size int64 `json:"size"`
}

// Problem is one entry (or stray file) Verify found unreadable.
type Problem struct {
	Path string `json:"path"`
	Err  string `json:"error"`
}

// VerifyReport summarizes an integrity pass over the whole store.
type VerifyReport struct {
	Entries  int       `json:"entries"`
	Bytes    int64     `json:"bytes"`
	Problems []Problem `json:"problems,omitempty"`
	// Stray counts files that are not entries (leftover temporaries,
	// foreign files); they are reported by GC, not treated as damage.
	Stray int `json:"stray"`
}

// GCOptions bounds what GCWith retains beyond the always-removed
// corruption and stray temporaries — the retention knobs CI scratch
// corpora need (results are deterministic, so an evicted entry costs a
// recompute, never data).
type GCOptions struct {
	// MaxAge, when positive, removes intact entries whose append
	// time is older than now − MaxAge.
	MaxAge time.Duration
	// MaxBytes, when positive, evicts intact entries oldest-first
	// until the surviving corpus is at most this many bytes.
	MaxBytes int64
}

// GCReport summarizes a garbage-collection pass.
type GCReport struct {
	// RemovedCorrupt counts entries deleted because they failed the
	// integrity check; RemovedStray counts leftover temporary files
	// from killed writers.
	RemovedCorrupt int   `json:"removed_corrupt"`
	RemovedStray   int   `json:"removed_stray"`
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	// RemovedExpired counts intact entries past GCOptions.MaxAge;
	// RemovedOverBudget intact entries evicted oldest-first to fit
	// GCOptions.MaxBytes.
	RemovedExpired    int `json:"removed_expired,omitempty"`
	RemovedOverBudget int `json:"removed_over_budget,omitempty"`
	// Skipped counts files gc recognized as not belonging to the store
	// (neither entries nor temporaries) and deliberately left alone —
	// reported so an operator pointing gc at the wrong directory sees
	// the mismatch instead of silence.
	Skipped int `json:"skipped,omitempty"`
	// Kept counts the intact entries that survive.
	Kept int `json:"kept"`
}

// gcTmpAge is how old a temporary file must be before GC treats it as
// abandoned. A live writer holds its temp file for milliseconds; an
// hour-old one belongs to a killed process. The margin keeps
// `store gc` safe to run while sweeps write into the same directory.
const gcTmpAge = time.Hour
