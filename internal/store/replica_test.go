package store

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// memBackend is an in-memory remote corpus with fault switches and
// operation counters — the test double for a `serve -share` process.
type memBackend struct {
	mu      sync.Mutex
	objects map[Key][]byte
	gets    int
	puts    int
	lists   int
	getErr  error
	putErr  error
	listErr error
}

func newMemBackend() *memBackend { return &memBackend{objects: map[Key][]byte{}} }

func (m *memBackend) GetObject(_ context.Context, key Key) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gets++
	if m.getErr != nil {
		return nil, false, m.getErr
	}
	data, ok := m.objects[key]
	return data, ok, nil
}

func (m *memBackend) PutObject(_ context.Context, key Key, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.puts++
	if m.putErr != nil {
		return m.putErr
	}
	m.objects[key] = append([]byte(nil), data...)
	return nil
}

func (m *memBackend) ListObjects(context.Context) ([]Entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lists++
	if m.listErr != nil {
		return nil, m.listErr
	}
	out := make([]Entry, 0, len(m.objects))
	for k, v := range m.objects {
		out = append(out, Entry{Key: k, Size: int64(len(v))})
	}
	sortEntries(out)
	return out, nil
}

func (m *memBackend) getCalls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gets
}

func (m *memBackend) has(key Key) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.objects[key]
	return ok
}

func (m *memBackend) setPutErr(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putErr = err
}

func replicaKey(seed int64) Key {
	return Key{Hash: "0123456789abcdef", Seed: seed}
}

func seedRemote(t *testing.T, m *memBackend, seed int64) Key {
	t.Helper()
	key := replicaKey(seed)
	data, err := EncodeEnvelope(key, testResult(seed))
	if err != nil {
		t.Fatal(err)
	}
	m.objects[key] = data
	return key
}

func openTestReplica(t *testing.T, remote Backend) *ReplicaStore {
	t.Helper()
	r, err := OpenReplica(t.TempDir(), remote)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestReplicaReadThroughFillsThenServesLocally(t *testing.T) {
	mb := newMemBackend()
	key := seedRemote(t, mb, 1)
	r := openTestReplica(t, mb)

	res, ok, err := r.Get(key)
	if err != nil || !ok || res == nil {
		t.Fatalf("read-through get: ok=%v err=%v", ok, err)
	}
	if calls := mb.getCalls(); calls != 1 {
		t.Fatalf("first get made %d remote calls, want 1", calls)
	}
	// The verified envelope is now local: the second read must not
	// touch the network.
	if _, ok, err := r.Get(key); err != nil || !ok {
		t.Fatalf("cached get: ok=%v err=%v", ok, err)
	}
	if calls := mb.getCalls(); calls != 1 {
		t.Fatalf("cached get made a remote call (%d total)", calls)
	}
	s := r.Stats()
	if s.RemoteFills != 1 || s.LocalHits != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestReplicaRemoteMissIsClean(t *testing.T) {
	mb := newMemBackend()
	r := openTestReplica(t, mb)
	_, ok, err := r.Get(replicaKey(9))
	if err != nil || ok {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
	if s := r.Stats(); s.RemoteMisses != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestReplicaNeverCachesCorruptRemoteBytes(t *testing.T) {
	mb := newMemBackend()
	key := seedRemote(t, mb, 1)
	mb.objects[key][len(mb.objects[key])/2] ^= 0x01 // byzantine remote
	r := openTestReplica(t, mb)

	if _, ok, err := r.Get(key); err == nil || ok {
		t.Fatalf("corrupt remote bytes served: ok=%v err=%v", ok, err)
	}
	if _, ok, err := r.Local().GetObject(t.Context(), key); err != nil || ok {
		t.Fatalf("corrupt bytes reached the cache: ok=%v err=%v", ok, err)
	}
	s := r.Stats()
	if s.CorruptRemote != 1 || s.RemoteFills != 0 {
		t.Fatalf("stats: %+v", s)
	}
	// The cache stays verifiably clean.
	rep, err := r.Local().Verify()
	if err != nil || len(rep.Problems) != 0 {
		t.Fatalf("cache verify after corrupt fetch: %+v err=%v", rep, err)
	}
}

func TestReplicaWritesLocallyAndFlushesUpstream(t *testing.T) {
	mb := newMemBackend()
	r := openTestReplica(t, mb)
	key := replicaKey(3)
	if err := r.Put(key, testResult(3)); err != nil {
		t.Fatal(err)
	}
	// The local write is durable immediately.
	if _, ok, err := r.Local().GetObject(t.Context(), key); err != nil || !ok {
		t.Fatalf("local tier after put: ok=%v err=%v", ok, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if !mb.has(key) {
		t.Fatal("flush did not reach the remote")
	}
	if s := r.Stats(); s.LocalPuts != 1 || s.FlushOK != 1 || s.FlushErrors != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestReplicaFlushFailureStaysLocalAndSyncRecovers(t *testing.T) {
	mb := newMemBackend()
	mb.setPutErr(errors.New("remote down"))
	r := openTestReplica(t, mb)
	key := replicaKey(4)
	if err := r.Put(key, testResult(4)); err != nil {
		t.Fatalf("a dead remote must not fail local writes: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.FlushErrors != 1 || s.FlushOK != 0 {
		t.Fatalf("stats after failed flush: %+v", s)
	}
	if mb.has(key) {
		t.Fatal("failed flush still wrote upstream")
	}

	// The remote heals; Sync reconciles the difference.
	mb.setPutErr(nil)
	rep, err := r.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pushed != 1 || rep.PushErrors != 0 {
		t.Fatalf("sync report: %+v", rep)
	}
	if !mb.has(key) {
		t.Fatal("sync did not push the local entry")
	}
	// Re-running is a no-op: the remote already has everything.
	rep, err = r.Sync(ctx)
	if err != nil || rep.Pushed != 0 {
		t.Fatalf("second sync: %+v err=%v", rep, err)
	}
}

func TestReplicaListUnionAndDeadRemoteDegrade(t *testing.T) {
	mb := newMemBackend()
	remoteKey := seedRemote(t, mb, 1)
	r := openTestReplica(t, mb)
	localKey := replicaKey(2)
	if err := r.Put(localKey, testResult(2)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	ls, err := r.ListObjects(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 2 {
		t.Fatalf("union listing has %d entries, want 2: %+v", len(ls), ls)
	}

	// A dead remote degrades the listing to the local tier.
	mb.mu.Lock()
	mb.listErr = errors.New("remote down")
	mb.mu.Unlock()
	ls, err = r.ListObjects(t.Context())
	if err != nil {
		t.Fatalf("listing with a dead remote must degrade, not fail: %v", err)
	}
	// remoteKey was never read, so it lives only upstream; the degraded
	// listing holds just the local entry.
	if len(ls) != 1 || ls[0].Key != localKey || ls[0].Key == remoteKey {
		t.Fatalf("degraded listing: %+v, want just the local entry", ls)
	}
}

func TestReplicaTierStatsMergeRemoteCounters(t *testing.T) {
	mb := newMemBackend()
	rb := NewRetryBackend(mb, RetryOptions{Disable: true})
	r, err := OpenReplica(t.TempDir(), rb)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Get(replicaKey(1)); err != nil {
		t.Fatal(err)
	}
	ts := r.TierStats()
	if ts.Replica == nil || ts.Replica.RemoteMisses != 1 {
		t.Fatalf("replica tier stats: %+v", ts.Replica)
	}
	if ts.Remote == nil || ts.Remote.Attempts != 1 {
		t.Fatalf("remote tier stats: %+v", ts.Remote)
	}
}

func TestWriteOnlyReplicaKeepsLifecycleAndTierStats(t *testing.T) {
	mb := newMemBackend()
	key := seedRemote(t, mb, 1)
	r, err := OpenReplica(t.TempDir(), mb)
	if err != nil {
		t.Fatal(err)
	}
	w := WriteOnly(r)
	// The veil hides reads...
	if _, ok, err := w.Get(key); err != nil || ok {
		t.Fatalf("write-only get: ok=%v err=%v", ok, err)
	}
	if _, ok, err := GetContext(context.Background(), w, key); err != nil || ok {
		t.Fatalf("write-only context get: ok=%v err=%v", ok, err)
	}
	// ...but not the tier counters or the lifecycle.
	if _, ok := w.(TierStatter); !ok {
		t.Fatal("write-only replica lost TierStats")
	}
	if err := CloseStore(w); err != nil {
		t.Fatal(err)
	}
	// Close reached the wrapped replica (idempotently): the flush
	// worker is gone and a second close is a no-op.
	if err := r.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestReplicaHealsDamagedLocalRecords: a damaged local record is never
// served, through either read verb. The local read drops it, the
// remote's good bytes come back and refill the cache, and the replica
// counts a remote fill, not a local hit.
func TestReplicaHealsDamagedLocalRecords(t *testing.T) {
	mb := newMemBackend()
	getKey, objKey := seedRemote(t, mb, 1), seedRemote(t, mb, 2)
	r := openTestReplica(t, mb)
	for _, key := range []Key{getKey, objKey} {
		if err := r.local.PutObject(context.Background(), key, mb.objects[key]); err != nil {
			t.Fatal(err)
		}
		damageRecord(t, r.local, key)
	}

	res, ok, err := r.Get(getKey)
	if err != nil || !ok || res.Seed != getKey.Seed {
		t.Fatalf("Get over a damaged local record: res=%+v ok=%v err=%v", res, ok, err)
	}
	data, ok, err := r.GetObject(context.Background(), objKey)
	if err != nil || !ok {
		t.Fatalf("GetObject over a damaged local record: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(data, mb.objects[objKey]) {
		t.Fatal("GetObject served bytes other than the remote's good envelope")
	}
	if s := r.Stats(); s.RemoteFills != 2 || s.LocalHits != 0 {
		t.Fatalf("stats: %+v, want 2 remote fills and 0 local hits", s)
	}
	// The refilled records are good: the next reads are local hits.
	for _, key := range []Key{getKey, objKey} {
		if _, ok, err := r.local.Get(key); !ok || err != nil {
			t.Fatalf("refilled %s: ok=%v err=%v", key, ok, err)
		}
	}
}

// TestSyncDirNeverPushesDamagedRecords: sync reads each entry it pushes
// through the verified read, so a damaged local record is counted as a
// push error and dropped, never sent upstream; the next sync finds
// nothing left to push.
func TestSyncDirNeverPushesDamagedRecords(t *testing.T) {
	p := openPackedTest(t)
	keys := fillPacked(t, p, 2)
	damageRecord(t, p, keys[0])
	mb := newMemBackend()
	ctx := context.Background()

	rep, err := SyncDirToRemote(ctx, p, mb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pushed != 1 || rep.PushErrors != 1 {
		t.Fatalf("first sync: %+v, want 1 pushed and 1 push error", rep)
	}
	if mb.has(keys[0]) || mb.puts != 1 {
		t.Fatalf("remote saw %d puts (damaged key present: %v), want only the good entry's", mb.puts, mb.has(keys[0]))
	}
	rep, err = SyncDirToRemote(ctx, p, mb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pushed != 0 || rep.PushErrors != 0 {
		t.Fatalf("second sync: %+v, want nothing pushed and 0 push errors", rep)
	}
}
