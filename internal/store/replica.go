package store

// ReplicaStore is the read-through cache that makes the shared-corpus
// tier survivable: a local packed store layered over any remote
// Backend. Remote hits are verified once and persisted verbatim, local
// hits never touch the network, and writes land locally first with a
// best-effort async flush upstream. Because results are immutable by
// the determinism contract, the two tiers can never disagree about a
// key's bytes — there is no invalidation, only presence — which is why
// a cache this simple is safe.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ichannels/internal/scenario"
)

// defaultFlushQueue bounds the async upstream write queue. Overflow
// drops to local-only (counted); `store sync` reconciles later.
const defaultFlushQueue = 256

// flushPollInterval paces Flush's wait for the queue to drain.
const flushPollInterval = 10 * time.Millisecond

// ReplicaStore layers a local packed store over a remote backend.
// It implements Store, ContextStore, Backend, and TierStatter.
type ReplicaStore struct {
	local  *Packed
	remote Backend

	ch chan flushItem
	wg sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	pending int64
	stats   ReplicaStats
}

type flushItem struct {
	key  Key
	data []byte
}

// OpenReplica opens (or creates) the packed local cache at cacheDir and
// layers it over remote.
func OpenReplica(cacheDir string, remote Backend) (*ReplicaStore, error) {
	if remote == nil {
		return nil, fmt.Errorf("store: replica %s: nil remote backend", cacheDir)
	}
	local, err := OpenPacked(cacheDir)
	if err != nil {
		return nil, err
	}
	r := &ReplicaStore{local: local, remote: remote, ch: make(chan flushItem, defaultFlushQueue)}
	r.wg.Add(1)
	go r.flushLoop()
	return r, nil
}

// flushLoop drains the async write queue: each item is pushed upstream
// best-effort. A failed push stays local only — the entry is already
// durable in the cache, and `store sync` reconciles the difference.
func (r *ReplicaStore) flushLoop() {
	defer r.wg.Done()
	for item := range r.ch {
		err := r.remote.PutObject(context.Background(), item.key, item.data)
		r.mu.Lock()
		r.pending--
		if err != nil {
			r.stats.FlushErrors++
		} else {
			r.stats.FlushOK++
		}
		r.mu.Unlock()
	}
}

// Local returns the local cache tier.
func (r *ReplicaStore) Local() *Packed { return r.local }

// Get implements Store.
func (r *ReplicaStore) Get(key Key) (*scenario.Result, bool, error) {
	return r.GetContext(context.Background(), key)
}

// GetContext implements ContextStore: local tier first (no network on
// a hit), then the remote; a verified remote hit is persisted locally
// so the next read is free.
func (r *ReplicaStore) GetContext(ctx context.Context, key Key) (*scenario.Result, bool, error) {
	if res, ok, err := r.local.Get(key); err == nil && ok {
		r.count(func(s *ReplicaStats) { s.LocalHits++ })
		return res, true, nil
	}
	// Local miss or locally damaged entry (the packed layout self-heals
	// damaged refs): consult the remote.
	data, ok, err := r.remote.GetObject(ctx, key)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		r.count(func(s *ReplicaStats) { s.RemoteMisses++ })
		return nil, false, nil
	}
	res, err := decodeEnvelope(key, data)
	if err != nil {
		// Corrupt remote bytes are rejected and never cached.
		r.count(func(s *ReplicaStats) { s.CorruptRemote++ })
		return nil, false, err
	}
	// Verified once; stored verbatim.
	if perr := r.local.PutObject(ctx, key, data); perr == nil {
		r.count(func(s *ReplicaStats) { s.RemoteFills++ })
	}
	return res, true, nil
}

// Put implements Store.
func (r *ReplicaStore) Put(key Key, res *scenario.Result) error {
	return r.PutContext(context.Background(), key, res)
}

// PutContext implements ContextStore: local-first (the local write is
// the durable one), then an async best-effort push upstream.
func (r *ReplicaStore) PutContext(ctx context.Context, key Key, res *scenario.Result) error {
	data, err := EncodeEnvelope(key, res)
	if err != nil {
		return err
	}
	return r.PutObject(ctx, key, data)
}

// PutObject implements Backend and is the shared write path:
// local-first (the local write is the durable one), then the async
// flush upstream.
func (r *ReplicaStore) PutObject(ctx context.Context, key Key, data []byte) error {
	if err := r.local.PutObject(ctx, key, data); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.LocalPuts++
	if r.closed {
		r.stats.FlushDropped++
		return nil
	}
	select {
	case r.ch <- flushItem{key: key, data: data}:
		r.pending++
	default:
		r.stats.FlushDropped++
	}
	return nil
}

// GetObject implements Backend: the read-through in raw-bytes form, so
// a serve process can share a replica onward (proxy chains compose).
func (r *ReplicaStore) GetObject(ctx context.Context, key Key) ([]byte, bool, error) {
	if data, ok, err := r.local.GetObject(ctx, key); err == nil && ok {
		r.count(func(s *ReplicaStats) { s.LocalHits++ })
		return data, true, nil
	}
	data, ok, err := r.remote.GetObject(ctx, key)
	if err != nil || !ok {
		if err == nil {
			r.count(func(s *ReplicaStats) { s.RemoteMisses++ })
		}
		return nil, false, err
	}
	if _, derr := decodeEnvelope(key, data); derr != nil {
		r.count(func(s *ReplicaStats) { s.CorruptRemote++ })
		return nil, false, derr
	}
	if perr := r.local.PutObject(ctx, key, data); perr == nil {
		r.count(func(s *ReplicaStats) { s.RemoteFills++ })
	}
	return data, true, nil
}

// ListObjects implements Backend: the union of both tiers, local
// entries winning (identical bytes anyway). A dead remote degrades to
// the local listing.
func (r *ReplicaStore) ListObjects(ctx context.Context) ([]Entry, error) {
	local, err := r.local.List()
	if err != nil {
		return nil, err
	}
	remote, err := r.remote.ListObjects(ctx)
	if err != nil {
		return local, nil
	}
	return mergeEntries(local, remote), nil
}

// keyLess is the store's listing order: by hash, then seed.
func keyLess(a, b Key) bool {
	if a.Hash != b.Hash {
		return a.Hash < b.Hash
	}
	return a.Seed < b.Seed
}

// sortEntries orders a listing by key.
func sortEntries(out []Entry) {
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
}

// mergeEntries unions two sorted entry listings by key.
func mergeEntries(a, b []Entry) []Entry {
	seen := make(map[Key]bool, len(a))
	out := make([]Entry, 0, len(a)+len(b))
	for _, e := range a {
		seen[e.Key] = true
		out = append(out, e)
	}
	for _, e := range b {
		if !seen[e.Key] {
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// Flush waits for the async write queue to drain (or ctx to expire).
func (r *ReplicaStore) Flush(ctx context.Context) error {
	for {
		r.mu.Lock()
		n := r.pending
		r.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(flushPollInterval):
		}
	}
}

// SyncReport describes one reconcile pass against the remote.
type SyncReport struct {
	// LocalEntries / RemoteEntries are the tier sizes at sync time.
	LocalEntries  int `json:"local_entries"`
	RemoteEntries int `json:"remote_entries"`
	// Pushed counts local entries uploaded because the remote lacked
	// them; PushErrors counts uploads that failed (they stay local).
	Pushed     int `json:"pushed"`
	PushErrors int `json:"push_errors"`
}

// Sync drains the flush queue, then reconciles: every local entry the
// remote lacks is pushed upstream. It is the recovery path after a
// partition or a remote wipe — the local cache is a full replica of
// everything this process computed or fetched.
func (r *ReplicaStore) Sync(ctx context.Context) (*SyncReport, error) {
	if err := r.Flush(ctx); err != nil {
		return nil, err
	}
	return SyncDirToRemote(ctx, r.local, r.remote)
}

// SyncDirToRemote pushes every entry in local that remote lacks. The
// `store sync` CLI drives it against a plain cache directory, no
// ReplicaStore needed.
func SyncDirToRemote(ctx context.Context, local *Packed, remote Backend) (*SyncReport, error) {
	locals, err := local.List()
	if err != nil {
		return nil, err
	}
	remotes, err := remote.ListObjects(ctx)
	if err != nil {
		return nil, err
	}
	have := make(map[Key]bool, len(remotes))
	for _, e := range remotes {
		have[e.Key] = true
	}
	rep := &SyncReport{LocalEntries: len(locals), RemoteEntries: len(remotes)}
	for _, e := range locals {
		if have[e.Key] {
			continue
		}
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		data, ok, gerr := local.GetObject(ctx, e.Key)
		if gerr != nil || !ok {
			rep.PushErrors++
			continue
		}
		if perr := remote.PutObject(ctx, e.Key, data); perr != nil {
			rep.PushErrors++
			continue
		}
		rep.Pushed++
	}
	return rep, nil
}

// GCWith forwards retention to the local tier: a serve process fronting
// a remote with a replica cache bounds its own disk, never the
// upstream's.
func (r *ReplicaStore) GCWith(opts GCOptions) (*GCReport, error) {
	return r.local.GCWith(opts)
}

// TierStats implements TierStatter: the replica counters merged with
// the remote's retry/breaker counters when it exposes them.
func (r *ReplicaStore) TierStats() TierStats {
	r.mu.Lock()
	s := r.stats
	s.FlushPending = r.pending
	r.mu.Unlock()
	ts := TierStats{Replica: &s}
	if t, ok := r.remote.(TierStatter); ok {
		ts.Remote = t.TierStats().Remote
	}
	return ts
}

// Stats snapshots the replica counters.
func (r *ReplicaStore) Stats() ReplicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.FlushPending = r.pending
	return s
}

// Close drains the flush queue, stops the worker, and closes the local
// tier. Writes after Close stay local-only.
func (r *ReplicaStore) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.ch)
	r.wg.Wait()
	return r.local.Close()
}

func (r *ReplicaStore) count(f func(*ReplicaStats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}
