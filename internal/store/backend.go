package store

import (
	"context"

	"ichannels/internal/scenario"
)

// Backend is the pluggable object seam under the Store contract: raw
// envelope bytes addressed by content key. The packed store exposes it
// (one segment record per object), and the HTTP remote backend serves
// it over /v1/store/{key} — so N workers can share one corpus without a
// shared filesystem.
//
// A Backend moves bytes; no consumer takes them on trust: Packed
// checks each record on its one read path, and BackendStore is the one
// decoder every other tier reads through, so a corrupt or byzantine
// backend is detected exactly the way a corrupt disk entry is.
//
// Every verb takes a context: remote backends honor it, so a cancelled
// sweep aborts in-flight store I/O promptly; local backends may ignore
// it (disk ops don't hang).
type Backend interface {
	// GetObject returns the stored envelope bytes for key, ok=false on
	// a clean miss.
	GetObject(ctx context.Context, key Key) ([]byte, bool, error)
	// PutObject stores envelope bytes under key. Callers must only
	// store canonical EncodeEnvelope output; implementations may assume
	// (or verify) that.
	PutObject(ctx context.Context, key Key, data []byte) error
	// ListObjects enumerates the stored entries sorted by key.
	ListObjects(ctx context.Context) ([]Entry, error)
}

// ContextStore is the context-aware variant of Store, implemented by
// stores whose reads and writes can be cancelled mid-flight. The
// package-level GetContext/PutContext helpers upgrade to it, so the
// engine threads its stream context through without every Store
// implementation changing.
type ContextStore interface {
	GetContext(ctx context.Context, key Key) (*scenario.Result, bool, error)
	PutContext(ctx context.Context, key Key, res *scenario.Result) error
}

// GetContext reads key from s, honoring ctx when s supports it.
func GetContext(ctx context.Context, s Store, key Key) (*scenario.Result, bool, error) {
	if cs, ok := s.(ContextStore); ok && ctx != nil {
		return cs.GetContext(ctx, key)
	}
	return s.Get(key)
}

// PutContext writes key to s, honoring ctx when s supports it.
func PutContext(ctx context.Context, s Store, key Key, res *scenario.Result) error {
	if cs, ok := s.(ContextStore); ok && ctx != nil {
		return cs.PutContext(ctx, key, res)
	}
	return s.Put(key, res)
}

// BackendStore adapts a Backend to the Store interface, adding the
// envelope round-trip: Get decodes and verifies the fetched bytes
// against the key, Put encodes the canonical envelope. It is the one
// decoder for every tier that is not Packed: the remote store
// (OpenRemote) is one over a retrying HTTP backend, and ReplicaStore
// embeds one over its own raw read-through.
type BackendStore struct {
	b Backend
}

// NewBackendStore wraps a Backend as a verifying Store.
func NewBackendStore(b Backend) *BackendStore {
	return &BackendStore{b: b}
}

// Get implements Store: fetch and verify.
func (s *BackendStore) Get(key Key) (*scenario.Result, bool, error) {
	return s.GetContext(context.Background(), key)
}

// GetContext implements ContextStore: fetch honoring ctx, then verify.
func (s *BackendStore) GetContext(ctx context.Context, key Key) (*scenario.Result, bool, error) {
	data, ok, err := s.b.GetObject(ctx, key)
	if err != nil || !ok {
		return nil, false, err
	}
	res, err := DecodeEnvelope(key, data)
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
}

// Put implements Store: encode canonically and store.
func (s *BackendStore) Put(key Key, res *scenario.Result) error {
	return s.PutContext(context.Background(), key, res)
}

// PutContext implements ContextStore: encode canonically, store
// honoring ctx.
func (s *BackendStore) PutContext(ctx context.Context, key Key, res *scenario.Result) error {
	data, err := EncodeEnvelope(key, res)
	if err != nil {
		return err
	}
	return s.b.PutObject(ctx, key, data)
}

// List enumerates the backend's entries.
func (s *BackendStore) List() ([]Entry, error) { return s.b.ListObjects(context.Background()) }

// GetObject, PutObject and ListObjects forward the raw verbs, so a
// BackendStore is itself a Backend: a server whose -store is a remote
// corpus can still share it onward (proxy chains compose).
func (s *BackendStore) GetObject(ctx context.Context, key Key) ([]byte, bool, error) {
	return s.b.GetObject(ctx, key)
}

// PutObject forwards to the wrapped backend.
func (s *BackendStore) PutObject(ctx context.Context, key Key, data []byte) error {
	return s.b.PutObject(ctx, key, data)
}

// ListObjects forwards to the wrapped backend.
func (s *BackendStore) ListObjects(ctx context.Context) ([]Entry, error) {
	return s.b.ListObjects(ctx)
}

// TierStats implements TierStatter: the wrapped backend's counters
// (a RetryBackend's retry and breaker activity), empty when it keeps
// none.
func (s *BackendStore) TierStats() TierStats {
	if t, ok := s.b.(TierStatter); ok {
		return t.TierStats()
	}
	return TierStats{}
}
