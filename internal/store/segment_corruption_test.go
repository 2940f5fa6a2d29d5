package store

// Segment-layer counterpart of corruption_test.go: every class of
// on-disk damage a packed corpus can suffer — torn tails, bit flips
// mid-segment, missing or stale sidecars — must degrade to explicit
// errors or clean rebuilds, never to wrong results, and the scanner
// must hold its invariants on arbitrary bytes (FuzzSegmentDecode).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// jsonUnmarshal keeps the fuzz invariant readable.
func jsonUnmarshal(data []byte, v any) error { return json.Unmarshal(data, v) }

// buildSegmentImage materializes a real packed segment holding n
// fixture entries and returns its bytes and the keys, newest store
// first sealed via Close.
func buildSegmentImage(t *testing.T, n int) ([]byte, []Key) {
	t.Helper()
	dir := t.TempDir()
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fillPacked(t, p, n)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, SegmentsDirName, "00000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return data, keys
}

func TestScanSegmentRejectsBadMagic(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("short"), []byte("NOTSEG00rest of file")} {
		if _, err := ScanSegment(data); err == nil {
			t.Errorf("ScanSegment(%q...) accepted a non-segment", data)
		}
	}
}

func TestScanSegmentCleanImage(t *testing.T) {
	data, keys := buildSegmentImage(t, 3)
	sc, err := ScanSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Entries) != 3 || sc.Corrupt != 0 || sc.Torn {
		t.Fatalf("clean segment scan: %+v", sc)
	}
	if sc.ValidBytes != int64(len(data)) {
		t.Fatalf("ValidBytes %d, want full %d", sc.ValidBytes, len(data))
	}
	for i, e := range sc.Entries {
		if e.Key != keys[i] {
			t.Errorf("entry %d key %v, want %v", i, e.Key, keys[i])
		}
	}
}

// TestScanSegmentTruncatedTail: cutting the file mid-record loses only
// the torn record — everything before it still indexes.
func TestScanSegmentTruncatedTail(t *testing.T) {
	data, _ := buildSegmentImage(t, 3)
	sc, err := ScanSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	last := sc.Entries[2]
	cut := last.Offset + last.Length/2
	sc2, err := ScanSegment(data[:cut])
	if err != nil {
		t.Fatal(err)
	}
	if len(sc2.Entries) != 2 || !sc2.Torn {
		t.Fatalf("truncated scan: %+v, want 2 entries and Torn", sc2)
	}
	if sc2.ValidBytes != last.Offset {
		t.Fatalf("ValidBytes %d, want torn tail to start at %d", sc2.ValidBytes, last.Offset)
	}
}

// TestScanSegmentBitFlipMidSegment: a flipped byte inside one record's
// payload kills exactly that record; framing resynchronizes and the
// rest of the segment serves.
func TestScanSegmentBitFlipMidSegment(t *testing.T) {
	data, keys := buildSegmentImage(t, 3)
	sc, err := ScanSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	mid := sc.Entries[1]
	data[mid.Offset+mid.Length/2] ^= 0x40
	sc2, err := ScanSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc2.Entries) != 2 || sc2.Corrupt != 1 || sc2.Torn {
		t.Fatalf("bit-flip scan: %+v, want 2 entries + 1 corrupt", sc2)
	}
	if sc2.Entries[0].Key != keys[0] || sc2.Entries[1].Key != keys[2] {
		t.Fatalf("wrong survivors: %+v", sc2.Entries)
	}
	if sc2.ValidBytes != int64(len(data)) {
		t.Fatalf("a framed corrupt record must still count as covered: ValidBytes %d of %d",
			sc2.ValidBytes, len(data))
	}
}

// TestScanSegmentGarbageFrame: a length prefix pointing past the end
// (or zeroed) ends the scan as a torn tail instead of allocating or
// misreading.
func TestScanSegmentGarbageFrame(t *testing.T) {
	data, _ := buildSegmentImage(t, 2)
	sc, _ := ScanSegment(data)
	first := sc.Entries[0]
	for _, frame := range []uint32{0, 0xffffffff, uint32(len(data))} {
		img := append([]byte(nil), data...)
		binary.BigEndian.PutUint32(img[first.Offset+first.Length:], frame)
		sc2, err := ScanSegment(img)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc2.Entries) != 1 || !sc2.Torn {
			t.Fatalf("frame %#x: scan %+v, want 1 entry and Torn", frame, sc2)
		}
	}
}

// TestPackedTruncatedTailReopens is the store-level version of the
// torn-tail row: a segment cut mid-record reopens, serves the whole
// records, and the file is truncated back to its valid prefix.
func TestPackedTruncatedTailReopens(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fillPacked(t, p, 3)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, SegmentsDirName, "00000001.seg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ScanSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	last := sc.Entries[2]
	if err := os.Truncate(segPath, last.Offset+last.Length/2); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for _, key := range keys[:2] {
		if _, ok, err := p2.Get(key); !ok || err != nil {
			t.Fatalf("whole record %s lost to a torn tail: ok=%v err=%v", key, ok, err)
		}
	}
	if _, ok, _ := p2.Get(keys[2]); ok {
		t.Fatal("torn record served")
	}
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != last.Offset {
		t.Fatalf("segment not truncated to its valid prefix: %d, want %d", info.Size(), last.Offset)
	}
}

// FuzzSegmentDecode: ScanSegment on arbitrary bytes must never panic
// and must keep its structural invariants — entries in bounds and in
// order, ValidBytes within the image, every indexed record decodable.
func FuzzSegmentDecode(f *testing.F) {
	data, _ := buildSegmentImageF(f, 3)
	f.Add(data)                          // a clean real segment
	f.Add(data[:len(data)-7])            // torn tail
	f.Add(data[:len(segMagic)])          // empty segment
	f.Add([]byte(segMagic + "\x00\x00")) // short frame
	flipped := append([]byte(nil), data...)
	flipped[len(data)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte("not a segment at all"))

	f.Fuzz(func(t *testing.T, img []byte) {
		sc, err := ScanSegment(img)
		if err != nil {
			return
		}
		if sc.ValidBytes < int64(len(segMagic)) || sc.ValidBytes > int64(len(img)) {
			t.Fatalf("ValidBytes %d outside [%d,%d]", sc.ValidBytes, len(segMagic), len(img))
		}
		prevEnd := int64(len(segMagic))
		for i, e := range sc.Entries {
			if e.Offset < prevEnd || e.Length <= 4 || e.Offset+e.Length > sc.ValidBytes {
				t.Fatalf("entry %d out of bounds: %+v (prev end %d, valid %d)", i, e, prevEnd, sc.ValidBytes)
			}
			prevEnd = e.Offset + e.Length
			// Exactly what ScanSegment promises for an indexed record:
			// the envelope parses, identifies e.Key, and checksums.
			payload := img[e.Offset+4 : e.Offset+e.Length]
			var env envelope
			if err := jsonUnmarshal(payload, &env); err != nil {
				t.Fatalf("indexed record %d does not parse: %v", i, err)
			}
			if (Key{Hash: env.Hash, Seed: env.Seed}) != e.Key {
				t.Fatalf("indexed record %d identifies %s-%d, scanned as %v", i, env.Hash, env.Seed, e.Key)
			}
			if checksumOf(env.Result) != env.Checksum {
				t.Fatalf("indexed record %d fails its checksum", i)
			}
		}
		if sc.Torn && sc.ValidBytes == int64(len(img)) {
			t.Fatal("Torn with nothing past ValidBytes")
		}
	})
}

// buildSegmentImageF is buildSegmentImage for fuzz seeding (testing.F
// instead of *testing.T).
func buildSegmentImageF(f *testing.F, n int) ([]byte, []Key) {
	f.Helper()
	dir := f.TempDir()
	p, err := OpenPacked(dir)
	if err != nil {
		f.Fatal(err)
	}
	var keys []Key
	for i := 1; i <= n; i++ {
		key := Key{Hash: "0123456789abcdef", Seed: int64(i)}
		if err := p.Put(key, testResult(key)); err != nil {
			f.Fatal(err)
		}
		keys = append(keys, key)
	}
	if err := p.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, SegmentsDirName, "00000001.seg"))
	if err != nil {
		f.Fatal(err)
	}
	return data, keys
}

// TestSidecarRoundTripAndStaleness: the sidecar read/write pair and its
// staleness rules.
func TestSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "00000001.idx")
	idx := &segmentIndex{
		Version: segIndexVersion, CoveredBytes: 100,
		Entries: []segmentIndexEntry{{Hash: "abc", Seed: 1, Off: 8, Len: 92, TS: 1700000000}},
	}
	if err := writeSidecar(path, idx); err != nil {
		t.Fatal(err)
	}
	got, ok := readSidecar(path, 100)
	if !ok || len(got.Entries) != 1 || got.Entries[0].TS != 1700000000 {
		t.Fatalf("sidecar round-trip: ok=%v got=%+v", ok, got)
	}
	// Staleness and damage all mean "rescan".
	if _, ok := readSidecar(path, 150); ok {
		t.Fatal("size-mismatched sidecar accepted")
	}
	if _, ok := readSidecar(filepath.Join(dir, "missing.idx"), 100); ok {
		t.Fatal("missing sidecar accepted")
	}
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := readSidecar(path, 100); ok {
		t.Fatal("unparseable sidecar accepted")
	}
	// Out-of-bounds entries are rejected even with matching size.
	bad := &segmentIndex{Version: segIndexVersion, CoveredBytes: 100,
		Entries: []segmentIndexEntry{{Hash: "abc", Seed: 1, Off: 90, Len: 20, TS: 1}}}
	if err := writeSidecar(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, ok := readSidecar(path, 100); ok {
		t.Fatal("out-of-bounds sidecar entry accepted")
	}
	// No temporaries left behind by the atomic writes.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !bytes.HasSuffix([]byte(de.Name()), []byte(".idx")) {
			t.Fatalf("leftover file %s", de.Name())
		}
	}
}
