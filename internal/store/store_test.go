package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ichannels/internal/scenario"
)

func testResult(key Key) *scenario.Result {
	return &scenario.Result{
		Role: scenario.RoleChannel, Processor: "Cannon Lake", Kind: scenario.KindCores,
		Hash: key.Hash, Seed: key.Seed,
		Bits: 4, SentBits: []int{1, 0, 1, 1}, DecodedBits: []int{1, 0, 1, 1},
		ThroughputBPS: 3000.25, BER: 0.125, ElapsedSimUS: 1234.5,
		Extra: map[string]float64{"calibration_gap_cycles": 4200},
		Notes: []string{"test fixture"},
	}
}

// damageRecord flips one digit inside key's stored result payload on
// disk — valid JSON, wrong checksum.
func damageRecord(t *testing.T, p *Packed, key Key) {
	t.Helper()
	ref := p.index[key]
	f, err := os.OpenFile(p.segPath(ref.seg), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame := make([]byte, ref.length)
	if _, err := f.ReadAt(frame, ref.off); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(flipResultByte(t, frame), ref.off); err != nil {
		t.Fatal(err)
	}
}

// tearRecord cuts key's segment off halfway through key's record — the
// torn tail a writer killed mid-append leaves. key must be the last
// record of its segment.
func tearRecord(t *testing.T, p *Packed, key Key) {
	t.Helper()
	ref := p.index[key]
	if err := os.Truncate(p.segPath(ref.seg), ref.off+ref.length/2); err != nil {
		t.Fatal(err)
	}
}

// putAt stores key with the retention clock set to at.
func putAt(t *testing.T, p *Packed, key Key, at time.Time) {
	t.Helper()
	p.now = func() time.Time { return at }
	defer func() { p.now = time.Now }()
	if err := p.Put(key, testResult(key)); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	p := openPackedTest(t)
	key := Key{Hash: "0123456789abcdef", Seed: 7}
	want := testResult(key)
	if err := p.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := p.Get(key)
	if !ok || err != nil {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	// The byte-identity contract must survive a store round-trip: the
	// fetched result re-marshals to exactly the computed result's bytes.
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Errorf("round-trip bytes differ:\n put: %s\n got: %s", wb, gb)
	}
	// Re-putting an existing key (deterministic results make the bytes
	// identical) must succeed.
	if err := p.Put(key, want); err != nil {
		t.Errorf("re-put: %v", err)
	}
}

// TestPutLeavesNoTemporaries: sealing writes each sidecar through a
// temporary file and a rename; none may be left behind.
func TestPutLeavesNoTemporaries(t *testing.T) {
	p := openPackedTest(t)
	for seed := int64(1); seed <= 4; seed++ {
		key := Key{Hash: "aabb304958aabbcc", Seed: seed}
		if err := p.Put(key, testResult(key)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	err := filepath.WalkDir(p.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), tmpPrefix) {
			t.Errorf("leftover temporary %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetRejectsCorruption(t *testing.T) {
	p := openPackedTest(t)
	key := Key{Hash: "0123456789abcdef", Seed: 3}
	if err := p.Put(key, testResult(key)); err != nil {
		t.Fatal(err)
	}
	damageRecord(t, p, key)
	if _, ok, err := p.Get(key); ok || err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupt entry: ok=%v err=%v, want checksum error", ok, err)
	}
}

// TestGetRejectsWrongKeyAndVersion: intact envelope bytes under another
// key (a misfiled or renamed entry) and an envelope from an unknown
// format version are both rejected, never served.
func TestGetRejectsWrongKeyAndVersion(t *testing.T) {
	key := Key{Hash: "0123456789abcdef", Seed: 3}
	data, err := EncodeEnvelope(key, testResult(key))
	if err != nil {
		t.Fatal(err)
	}
	moved := Key{Hash: "fedcba9876543210", Seed: 3}
	if _, err := DecodeEnvelope(moved, data); err == nil || !strings.Contains(err.Error(), "identifies") {
		t.Errorf("renamed entry: err=%v, want identity error", err)
	}
	bumped := bytes.Replace(data, []byte(`"version":1`), []byte(`"version":99`), 1)
	if _, err := DecodeEnvelope(key, bumped); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: err=%v, want version error", err)
	}
}

func TestListSorted(t *testing.T) {
	p := openPackedTest(t)
	keys := []Key{
		{Hash: "bb00000000000000", Seed: 2},
		{Hash: "aa00000000000000", Seed: 9},
		{Hash: "aa00000000000000", Seed: 1},
	}
	for _, k := range keys {
		if err := p.Put(k, testResult(k)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("listed %d entries, want 3", len(entries))
	}
	want := []Key{
		{Hash: "aa00000000000000", Seed: 1},
		{Hash: "aa00000000000000", Seed: 9},
		{Hash: "bb00000000000000", Seed: 2},
	}
	for i, e := range entries {
		if e.Key != want[i] {
			t.Errorf("entries[%d] = %v, want %v", i, e.Key, want[i])
		}
		if e.Size <= 0 {
			t.Errorf("entries[%d] size %d", i, e.Size)
		}
	}
}

func TestVerifyAndGC(t *testing.T) {
	p := openPackedTest(t)
	good := Key{Hash: "0123456789abcdef", Seed: 1}
	bad := Key{Hash: "0123456789abcdef", Seed: 2}
	for _, k := range []Key{good, bad} {
		if err := p.Put(k, testResult(k)); err != nil {
			t.Fatal(err)
		}
	}
	damageRecord(t, p, bad)
	// A leftover temporary from a long-dead writer (backdated past the
	// GC age margin) and a fresh one from a "live" writer.
	stray := filepath.Join(p.segDir, tmpPrefix+"orphan")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * gcTmpAge)
	if err := os.Chtimes(stray, old, old); err != nil {
		t.Fatal(err)
	}
	live := filepath.Join(p.segDir, tmpPrefix+"live")
	if err := os.WriteFile(live, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 2 || len(rep.Problems) != 1 || rep.Stray != 2 {
		t.Fatalf("verify report %+v, want 2 entries / 1 problem / 2 stray", rep)
	}

	gc, err := p.GC()
	if err != nil {
		t.Fatal(err)
	}
	if gc.RemovedCorrupt != 1 || gc.RemovedStray != 1 || gc.Kept != 1 || gc.ReclaimedBytes <= 0 {
		t.Fatalf("gc report %+v", gc)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("abandoned temporary survived gc: %v", err)
	}
	if _, err := os.Stat(live); err != nil {
		t.Errorf("live temporary removed by gc: %v", err)
	}
	os.Remove(live)
	if _, ok, err := p.Get(good); !ok || err != nil {
		t.Errorf("good entry after gc: ok=%v err=%v", ok, err)
	}
	if _, ok, err := p.Get(bad); ok || err != nil {
		t.Errorf("corrupt entry after gc: ok=%v err=%v (want clean miss)", ok, err)
	}
	rep, err = p.Verify()
	if err != nil || len(rep.Problems) != 0 || rep.Stray != 0 {
		t.Errorf("post-gc verify %+v err=%v", rep, err)
	}
}

func TestWriteOnly(t *testing.T) {
	p := openPackedTest(t)
	wo := WriteOnly(p)
	key := Key{Hash: "0123456789abcdef", Seed: 5}
	if err := wo.Put(key, testResult(key)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := wo.Get(key); ok || err != nil {
		t.Errorf("write-only get: ok=%v err=%v, want miss", ok, err)
	}
	if _, ok, err := p.Get(key); !ok || err != nil {
		t.Errorf("underlying get: ok=%v err=%v, want hit", ok, err)
	}
	if WriteOnly(nil) != nil {
		t.Error("WriteOnly(nil) should stay nil")
	}
}

func TestGCWithMaxAge(t *testing.T) {
	p := openPackedTest(t)
	oldKey := Key{Hash: "aaaa304958aabbcc", Seed: 1}
	newKey := Key{Hash: "bbbb304958aabbcc", Seed: 2}
	putAt(t, p, oldKey, time.Now().Add(-96*time.Hour))
	putAt(t, p, newKey, time.Now())

	rep, err := p.GCWith(GCOptions{MaxAge: 72 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedExpired != 1 || rep.Kept != 1 {
		t.Fatalf("report %+v, want 1 expired / 1 kept", rep)
	}
	if rep.ReclaimedBytes <= 0 {
		t.Error("expired entry reclaimed no bytes")
	}
	if _, ok, _ := p.Get(oldKey); ok {
		t.Error("expired entry still served")
	}
	if _, ok, err := p.Get(newKey); err != nil || !ok {
		t.Errorf("fresh entry lost (ok=%v err=%v)", ok, err)
	}
}

func TestGCWithMaxBytesEvictsOldestFirst(t *testing.T) {
	p := openPackedTest(t)
	keys := []Key{
		{Hash: "aaaa304958aabbcc", Seed: 1},
		{Hash: "bbbb304958aabbcc", Seed: 2},
		{Hash: "cccc304958aabbcc", Seed: 3},
	}
	for i, k := range keys {
		// Strictly increasing append times: keys[0] oldest.
		putAt(t, p, k, time.Now().Add(-time.Duration(len(keys)-i)*time.Hour))
	}
	each := p.index[keys[0]].length

	// Budget for exactly two entries: the oldest one must go.
	rep, err := p.GCWith(GCOptions{MaxBytes: 2 * each})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedOverBudget != 1 || rep.Kept != 2 {
		t.Fatalf("report %+v, want 1 over-budget / 2 kept", rep)
	}
	if _, ok, _ := p.Get(keys[0]); ok {
		t.Error("oldest entry survived a budget that fits only two")
	}
	for _, k := range keys[1:] {
		if _, ok, err := p.Get(k); err != nil || !ok {
			t.Errorf("entry %v evicted out of order (ok=%v err=%v)", k, ok, err)
		}
	}

	// A budget everything fits under removes nothing.
	rep, err = p.GCWith(GCOptions{MaxBytes: 100 * each})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedOverBudget != 0 || rep.Kept != 2 {
		t.Fatalf("no-op budget report %+v", rep)
	}
}

func TestGCWithZeroOptionsIsPlainGC(t *testing.T) {
	p := openPackedTest(t)
	putAt(t, p, Key{Hash: "aaaa304958aabbcc", Seed: 9}, time.Now().Add(-1000*time.Hour))
	rep, err := p.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedExpired != 0 || rep.RemovedOverBudget != 0 || rep.Kept != 1 {
		t.Fatalf("plain GC applied retention: %+v", rep)
	}
}
