package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openPackedTest(t *testing.T) *Packed {
	t.Helper()
	p, err := OpenPacked(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// fillPacked puts n distinct entries (seeds 1..n under the fixture
// hash) and returns their keys.
func fillPacked(t *testing.T, p *Packed, n int) []Key {
	t.Helper()
	keys := make([]Key, 0, n)
	for i := 1; i <= n; i++ {
		key := Key{Hash: "0123456789abcdef", Seed: int64(i)}
		if err := p.Put(key, testResult(key)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	return keys
}

func TestPackedPutGetRoundTrip(t *testing.T) {
	p := openPackedTest(t)
	key := Key{Hash: "0123456789abcdef", Seed: 7}
	if _, ok, err := p.Get(key); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	want := testResult(key)
	if err := p.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := p.Get(key)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if got.ThroughputBPS != want.ThroughputBPS || got.BER != want.BER || got.Seed != want.Seed {
		t.Fatalf("round-trip mutated the result: %+v", got)
	}
	if got.Extra["calibration_gap_cycles"] != 4200 {
		t.Fatalf("extra metrics lost: %+v", got.Extra)
	}
}

// TestPackedPutDedupes: re-putting an existing key appends nothing —
// the log must not accumulate duplicate records.
func TestPackedPutDedupes(t *testing.T) {
	p := openPackedTest(t)
	key := Key{Hash: "0123456789abcdef", Seed: 1}
	if err := p.Put(key, testResult(key)); err != nil {
		t.Fatal(err)
	}
	size0 := p.active.size
	for i := 0; i < 5; i++ {
		if err := p.Put(key, testResult(key)); err != nil {
			t.Fatal(err)
		}
	}
	if p.active.size != size0 {
		t.Fatalf("duplicate puts grew the segment: %d -> %d bytes", size0, p.active.size)
	}
	ls, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 1 {
		t.Fatalf("listed %d entries, want 1", len(ls))
	}
}

// TestPackedReopenUnsealed: a store abandoned without Close (no sidecar
// for the active segment) serves everything after reopen — the
// crash-safe rebuild path.
func TestPackedReopenUnsealed(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fillPacked(t, p, 5)
	// Abandon: no Close, no sidecar. Only release the handles so the
	// bytes are visible to the second open on every platform.
	for _, st := range p.segs {
		st.f.Close()
	}
	if _, err := os.Stat(p.idxPath(1)); !os.IsNotExist(err) {
		t.Fatalf("unsealed segment already has a sidecar (err=%v)", err)
	}

	p2, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for _, key := range keys {
		if _, ok, err := p2.Get(key); !ok || err != nil {
			t.Fatalf("entry %s after rebuild: ok=%v err=%v", key, ok, err)
		}
	}
	// The rebuild reseals: the sidecar now exists and a third open
	// loads through it.
	if _, err := os.Stat(p2.idxPath(1)); err != nil {
		t.Fatalf("rebuild did not reseal the segment: %v", err)
	}
}

// TestPackedSealAndReopen: Close seals; reopen serves through the
// sidecar (no rescan — detected by corrupting the segment body, which a
// sidecar-trusting open will not notice until read time).
func TestPackedSealAndReopen(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fillPacked(t, p, 3)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	ls, err := p2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != len(keys) {
		t.Fatalf("listed %d entries after reopen, want %d", len(ls), len(keys))
	}
	for _, key := range keys {
		if _, ok, err := p2.Get(key); !ok || err != nil {
			t.Fatalf("entry %s after sealed reopen: ok=%v err=%v", key, ok, err)
		}
	}
}

// TestPackedStaleSidecarRescans: appending to a sealed segment behind
// the store's back makes the sidecar stale (covered_bytes mismatch);
// the next open must rescan and serve the extra record.
func TestPackedStaleSidecarRescans(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillPacked(t, p, 2)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Append a third, valid record directly to the segment file.
	extra := Key{Hash: "0123456789abcdef", Seed: 99}
	env, err := EncodeEnvelope(extra, testResult(extra))
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 4+len(env))
	binary.BigEndian.PutUint32(frame, uint32(len(env)))
	copy(frame[4:], env)
	segPath := filepath.Join(dir, SegmentsDirName, "00000001.seg")
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p2, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if _, ok, err := p2.Get(extra); !ok || err != nil {
		t.Fatalf("record behind a stale sidecar not served: ok=%v err=%v", ok, err)
	}
	ls, _ := p2.List()
	if len(ls) != 3 {
		t.Fatalf("listed %d entries, want 3", len(ls))
	}
}

// TestPackedSegmentRoll: a tiny roll threshold produces multiple
// segments and every entry still serves.
func TestPackedSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPackedWith(dir, PackedOptions{MaxSegmentBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillPacked(t, p, 10)
	if len(p.segs) < 2 {
		t.Fatalf("10 entries over a 600-byte roll produced %d segment(s)", len(p.segs))
	}
	for _, key := range keys {
		if _, ok, err := p.Get(key); !ok || err != nil {
			t.Fatalf("entry %s across rolled segments: ok=%v err=%v", key, ok, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// And across a reopen, through the per-segment sidecars.
	p2, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for _, key := range keys {
		if _, ok, err := p2.Get(key); !ok || err != nil {
			t.Fatalf("entry %s after reopen: ok=%v err=%v", key, ok, err)
		}
	}
}

// TestPackedGetSelfHeals: a bit-flipped record errors once, drops from
// the index (subsequent reads are clean misses), and a re-put serves
// again — the engine's error-then-recompute-then-Put cycle heals the
// corpus. The script runs through both read verbs: Get with Put, and
// GetObject (the share route's, replica's and sync's read) with
// PutObject.
func TestPackedGetSelfHeals(t *testing.T) {
	verbs := []struct {
		name string
		get  func(p *Packed, key Key) (bool, error)
		put  func(p *Packed, key Key) error
	}{
		{
			name: "Get",
			get: func(p *Packed, key Key) (bool, error) {
				_, ok, err := p.Get(key)
				return ok, err
			},
			put: func(p *Packed, key Key) error { return p.Put(key, testResult(key)) },
		},
		{
			name: "GetObject",
			get: func(p *Packed, key Key) (bool, error) {
				data, ok, err := p.GetObject(context.Background(), key)
				if ok {
					if _, derr := DecodeEnvelope(key, data); derr != nil {
						return ok, fmt.Errorf("served bytes fail verification: %w", derr)
					}
				}
				return ok, err
			},
			put: func(p *Packed, key Key) error {
				env, err := EncodeEnvelope(key, testResult(key))
				if err != nil {
					return err
				}
				return p.PutObject(context.Background(), key, env)
			},
		},
	}
	for _, v := range verbs {
		t.Run(v.name, func(t *testing.T) {
			p := openPackedTest(t)
			keys := fillPacked(t, p, 2)
			victim := keys[0]
			ref := p.index[victim]
			// Flip one byte inside the victim's payload, through the OS file.
			f, err := os.OpenFile(p.segPath(ref.seg), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{0xff}, ref.off+10); err != nil {
				t.Fatal(err)
			}
			f.Close()

			if ok, err := v.get(p, victim); err == nil || ok {
				t.Fatalf("corrupt record served: ok=%v err=%v", ok, err)
			}
			if ok, err := v.get(p, victim); ok || err != nil {
				t.Fatalf("dropped record should be a clean miss: ok=%v err=%v", ok, err)
			}
			if err := v.put(p, victim); err != nil {
				t.Fatal(err)
			}
			if ok, err := v.get(p, victim); !ok || err != nil {
				t.Fatalf("re-put after self-heal: ok=%v err=%v", ok, err)
			}
			// The untouched neighbor was never affected.
			if ok, err := v.get(p, keys[1]); !ok || err != nil {
				t.Fatalf("neighbor entry: ok=%v err=%v", ok, err)
			}
		})
	}
}

// TestPackedGCCompacts: gc on a corpus with dropped records rewrites
// segments — disk shrinks, survivors serve, and a reopen agrees.
func TestPackedGCCompacts(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPackedWith(dir, PackedOptions{MaxSegmentBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	keys := fillPacked(t, p, 10)
	victim := keys[3]
	ref := p.index[victim]
	f, err := os.OpenFile(p.segPath(ref.seg), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, ref.off+10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	before, _ := p.segBytesLocked()
	rep, err := p.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedCorrupt != 1 || rep.Kept != 9 {
		t.Fatalf("gc report %+v: want 1 corrupt removed, 9 kept", rep)
	}
	if rep.ReclaimedBytes <= 0 {
		t.Fatalf("gc report %+v: compaction reclaimed nothing", rep)
	}
	after, _ := p.segBytesLocked()
	if after >= before {
		t.Fatalf("disk did not shrink: %d -> %d bytes", before, after)
	}
	for _, key := range keys {
		if key == victim {
			continue
		}
		if _, ok, err := p.Get(key); !ok || err != nil {
			t.Fatalf("survivor %s after compaction: ok=%v err=%v", key, ok, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	ls, _ := p2.List()
	if len(ls) != 9 {
		t.Fatalf("reopen after compaction lists %d entries, want 9", len(ls))
	}
}

// TestPackedGCMaxAge: the age bound runs on the append-timestamp clock.
func TestPackedGCMaxAge(t *testing.T) {
	p := openPackedTest(t)
	base := time.Now()
	p.now = func() time.Time { return base.Add(-48 * time.Hour) }
	old := fillPacked(t, p, 2)
	p.now = func() time.Time { return base }
	fresh := Key{Hash: "fedcba9876543210", Seed: 1}
	if err := p.Put(fresh, testResult(fresh)); err != nil {
		t.Fatal(err)
	}

	rep, err := p.GCWith(GCOptions{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedExpired != 2 || rep.Kept != 1 {
		t.Fatalf("gc report %+v: want 2 expired, 1 kept", rep)
	}
	for _, key := range old {
		if _, ok, _ := p.Get(key); ok {
			t.Fatalf("expired entry %s still serves", key)
		}
	}
	if _, ok, err := p.Get(fresh); !ok || err != nil {
		t.Fatalf("fresh entry evicted: ok=%v err=%v", ok, err)
	}
}

// TestPackedGCMaxBytes: the size budget evicts oldest append first.
func TestPackedGCMaxBytes(t *testing.T) {
	p := openPackedTest(t)
	base := time.Now()
	for i := 1; i <= 4; i++ {
		p.now = func() time.Time { return base.Add(time.Duration(i) * time.Hour) }
		key := Key{Hash: "0123456789abcdef", Seed: int64(i)}
		if err := p.Put(key, testResult(key)); err != nil {
			t.Fatal(err)
		}
	}
	// Every record is the same size; budget for two.
	var one int64
	for _, ref := range p.index {
		one = ref.length
		break
	}
	rep, err := p.GCWith(GCOptions{MaxBytes: 2 * one})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedOverBudget != 2 || rep.Kept != 2 {
		t.Fatalf("gc report %+v: want 2 evicted, 2 kept", rep)
	}
	for seed := int64(1); seed <= 2; seed++ {
		if _, ok, _ := p.Get(Key{Hash: "0123456789abcdef", Seed: seed}); ok {
			t.Fatalf("oldest entry (seed %d) survived the budget", seed)
		}
	}
	for seed := int64(3); seed <= 4; seed++ {
		if _, ok, err := p.Get(Key{Hash: "0123456789abcdef", Seed: seed}); !ok || err != nil {
			t.Fatalf("newest entry (seed %d) evicted: ok=%v err=%v", seed, ok, err)
		}
	}
}

// TestPackedGCSkipsForeignFiles: files gc does not recognize are
// counted, reported, and left exactly where they were — on the root and
// inside the segments directory alike.
func TestPackedGCSkipsForeignFiles(t *testing.T) {
	p := openPackedTest(t)
	fillPacked(t, p, 2)
	foreignRoot := filepath.Join(p.Dir(), "README.txt")
	foreignSeg := filepath.Join(p.segDir, "notes.json")
	for _, path := range []string{foreignRoot, foreignSeg} {
		if err := os.WriteFile(path, []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := p.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 2 {
		t.Fatalf("gc report %+v: want Skipped=2", rep)
	}
	if rep.Kept != 2 || rep.RemovedCorrupt != 0 {
		t.Fatalf("gc report %+v: foreign files must not affect entries", rep)
	}
	for _, path := range []string{foreignRoot, foreignSeg} {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("gc touched foreign file %s: %v", path, err)
		}
	}
}

// TestPackedAutoCompact: an open that discovers a mostly-dead corpus
// schedules compaction in the background; after WaitMaintenance the
// disk holds only live records.
func TestPackedAutoCompact(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fillPacked(t, p, 4)
	// Abandon unsealed, then damage 3 of 4 records on disk so the
	// rescan finds a 3/4-dead segment.
	var refs []packedRef
	for _, k := range keys[:3] {
		refs = append(refs, p.index[k])
	}
	segPath := p.segPath(1)
	for _, st := range p.segs {
		st.f.Close()
	}
	f, err := os.OpenFile(segPath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range refs {
		if _, err := f.WriteAt([]byte{0xff}, ref.off+10); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	p2, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	p2.WaitMaintenance()
	ls, err := p2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 1 {
		t.Fatalf("auto-compacted corpus lists %d entries, want 1", len(ls))
	}
	if _, ok, err := p2.Get(keys[3]); !ok || err != nil {
		t.Fatalf("surviving entry: ok=%v err=%v", ok, err)
	}
	p2.mu.RLock()
	dead := p2.deadBytes
	p2.mu.RUnlock()
	if dead != 0 {
		t.Fatalf("auto-compaction left %d dead bytes", dead)
	}
}

// TestPackedVerify: report-only integrity pass, with stray accounting
// for files the layout does not own.
func TestPackedVerify(t *testing.T) {
	p := openPackedTest(t)
	keys := fillPacked(t, p, 3)
	if err := os.WriteFile(filepath.Join(p.Dir(), "stray.bin"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 3 || len(rep.Problems) != 0 || rep.Stray != 1 {
		t.Fatalf("verify report %+v: want 3 clean entries, 1 stray", rep)
	}

	// Damage one record: verify reports it but keeps serving the rest
	// and does not drop the entry.
	ref := p.index[keys[1]]
	f, err := os.OpenFile(p.segPath(ref.seg), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, ref.off+10); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err = p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 1 {
		t.Fatalf("verify report %+v: want exactly the damaged record flagged", rep)
	}
	if !strings.Contains(rep.Problems[0].Path, "@") {
		t.Fatalf("problem path %q should carry the segment offset", rep.Problems[0].Path)
	}
}

func TestParseKeyString(t *testing.T) {
	cases := []struct {
		in   string
		want Key
		ok   bool
	}{
		{"0123456789abcdef-7", Key{Hash: "0123456789abcdef", Seed: 7}, true},
		{"abc-123-456", Key{Hash: "abc-123", Seed: 456}, true},
		{"nodash", Key{}, false},
		{"-7", Key{}, false},
		{"hash-", Key{}, false},
		{"hash-notanumber", Key{}, false},
	}
	for _, c := range cases {
		got, ok := ParseKeyString(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseKeyString(%q) = %+v, %v; want %+v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}
