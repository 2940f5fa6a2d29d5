package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
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
// caller expects — version, identity (the envelope's and its result's),
// and result checksum — and returns the result. It is the read half of
// EncodeEnvelope, shared by the packed store's record check,
// BackendStore, `store pack`, the share route's PUT and the distributed
// coordinator (worker-response verification). Every failure is tagged
// with ErrCorrupt: the bytes themselves are wrong, so no amount of
// retrying the same source helps — callers classify these as permanent.
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
	// encoding/json matches field names case-insensitively and skips
	// whitespace, so a damaged envelope can decode to the checksummed
	// result. Only the exact bytes EncodeEnvelope writes verify.
	if !canonical(data, &env) {
		return nil, markCorrupt(fmt.Errorf("store: entry %s: envelope differs from its canonical encoding", key))
	}
	var res scenario.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return nil, markCorrupt(fmt.Errorf("store: entry %s: malformed result: %w", key, err))
	}
	// The checksum vouches for the payload, not for whose it is: a
	// result naming another cell is as wrong as a flipped byte.
	if res.Hash != key.Hash || res.Seed != key.Seed {
		return nil, markCorrupt(fmt.Errorf("store: entry %s: result identifies %s-%d", key, res.Hash, res.Seed))
	}
	return &res, nil
}

// canonical reports whether data is exactly EncodeEnvelope's encoding
// of env: {"version":V,"hash":"H","seed":S,"checksum":"C","result":R}.
// It builds the prefix in a stack buffer instead of re-marshaling, so a
// verified read allocates nothing more.
func canonical(data []byte, env *envelope) bool {
	var buf [256]byte
	b := append(buf[:0], `{"version":`...)
	b = strconv.AppendInt(b, int64(env.Version), 10)
	b = append(b, `,"hash":`...)
	b = appendJSONString(b, env.Hash)
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, env.Seed, 10)
	b = append(b, `,"checksum":`...)
	b = appendJSONString(b, env.Checksum)
	b = append(b, `,"result":`...)
	n := len(b) + len(env.Result)
	return len(data) == n+1 && data[n] == '}' &&
		bytes.Equal(data[:len(b)], b) && bytes.Equal(data[len(b):n], env.Result)
}

// appendJSONString appends s as encoding/json encodes it: printable
// ASCII that needs no escape (every hex hash and checksum) is quoted in
// place; anything else goes through the encoder.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	return strconv.AppendQuote(b, s)
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
