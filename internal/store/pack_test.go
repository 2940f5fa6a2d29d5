package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writePerFile stores key's test result the way the retired per-file
// layout did — its envelope at dir/<hash[:2]>/<hash>-<seed>.json — and
// returns the entry's path and bytes.
func writePerFile(t *testing.T, dir string, key Key) (string, []byte) {
	t.Helper()
	data, err := EncodeEnvelope(key, testResult(key.Seed))
	if err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, key.Hash[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(shard, key.String()+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestPackMigratesCorpus: every per-file entry lands in segments with
// identical payload bytes, and the per-file originals disappear.
func TestPackMigratesCorpus(t *testing.T) {
	dir := t.TempDir()
	want := map[Key][]byte{}
	var paths []string
	for i := 1; i <= 6; i++ {
		key := Key{Hash: "0123456789abcdef", Seed: int64(i)}
		path, data := writePerFile(t, dir, key)
		want[key] = data
		paths = append(paths, path)
	}

	rep, err := Pack(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packed != 6 || rep.Skipped != 0 || rep.AlreadyPacked != 0 {
		t.Fatalf("pack report %+v: want 6 packed", rep)
	}
	if rep.Segments < 1 {
		t.Fatalf("pack report %+v: no segments", rep)
	}
	// Per-file originals are gone (shard dirs removed too).
	for _, path := range paths {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("per-file entry %s survived the migration (err=%v)", path, err)
		}
	}
	if _, err := os.Stat(filepath.Dir(paths[0])); !os.IsNotExist(err) {
		t.Fatalf("empty shard directory survived the migration (err=%v)", err)
	}
	// The packed corpus serves byte-identical envelopes.
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for key, data := range want {
		got, ok, err := p.GetObject(t.Context(), key)
		if !ok || err != nil {
			t.Fatalf("migrated entry %s: ok=%v err=%v", key, ok, err)
		}
		if string(got) != string(data) {
			t.Fatalf("entry %s bytes changed across migration", key)
		}
	}
}

// TestPackIsIdempotent: re-running pack on an already-packed corpus
// (plus one freshly recreated per-file duplicate) finishes the job
// without duplicating records.
func TestPackIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	key := Key{Hash: "0123456789abcdef", Seed: 1}
	writePerFile(t, dir, key)
	if _, err := Pack(dir); err != nil {
		t.Fatal(err)
	}
	// A pure re-run is a no-op.
	rep, err := Pack(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packed != 0 || rep.AlreadyPacked != 0 {
		t.Fatalf("re-pack report %+v: want a no-op", rep)
	}
	// Recreate the per-file duplicate (the crash-mid-pack shape: bytes
	// already in a segment, file not yet removed) and re-run.
	path, _ := writePerFile(t, dir, key)
	rep, err = Pack(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AlreadyPacked != 1 || rep.Packed != 0 {
		t.Fatalf("re-pack report %+v: want 1 already-packed", rep)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("duplicate per-file entry survived")
	}
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ls, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 1 {
		t.Fatalf("%d entries after double pack, want 1", len(ls))
	}
}

// TestPackLeavesCorruptEntriesInPlace: a per-file entry that fails
// verification is reported and left for gc, never migrated.
func TestPackLeavesCorruptEntriesInPlace(t *testing.T) {
	dir := t.TempDir()
	good := Key{Hash: "0123456789abcdef", Seed: 1}
	bad := Key{Hash: "0123456789abcdef", Seed: 2}
	writePerFile(t, dir, good)
	badPath, data := writePerFile(t, dir, bad)
	if err := os.WriteFile(badPath, flipResultByte(t, data), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Pack(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packed != 1 || rep.Skipped != 1 || len(rep.Problems) != 1 {
		t.Fatalf("pack report %+v: want 1 packed, 1 skipped with its problem", rep)
	}
	if _, err := os.Stat(badPath); err != nil {
		t.Fatalf("corrupt entry removed instead of left in place: %v", err)
	}
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, ok, err := p.Get(good); !ok || err != nil {
		t.Fatalf("good entry after pack: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := p.Get(bad); ok {
		t.Fatal("corrupt entry migrated")
	}
	// The leftover lives outside segments/, so packed gc counts it as a
	// foreign file and leaves it alone.
	gcRep, err := p.GC()
	if err != nil {
		t.Fatal(err)
	}
	if gcRep.Skipped != 1 {
		t.Fatalf("gc report %+v: want the un-migrated file skipped", gcRep)
	}
}

// TestOpenRefusesPerFileCorpus: every opener refuses a directory that
// still holds per-file entries, names `store pack` in the error, and
// leaves the directory untouched; once packed, it opens.
func TestOpenRefusesPerFileCorpus(t *testing.T) {
	dir := t.TempDir()
	key := Key{Hash: "0123456789abcdef", Seed: 1}
	writePerFile(t, dir, key)

	hint := "ichannels store pack " + dir
	openers := map[string]func() error{
		"packed":        func() error { _, err := OpenPacked(dir); return err },
		"directory":     func() error { _, err := OpenAuto(dir, ""); return err },
		"replica cache": func() error { _, err := OpenAuto("http://127.0.0.1:9", dir); return err },
	}
	for name, open := range openers {
		if err := open(); err == nil || !strings.Contains(err.Error(), hint) {
			t.Errorf("%s over a per-file corpus: err=%v, want the %q hint", name, err, hint)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, SegmentsDirName)); !os.IsNotExist(err) {
		t.Fatalf("a refused open created segments/ (err=%v)", err)
	}

	if _, err := Pack(dir); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPacked(dir)
	if err != nil {
		t.Fatalf("open after pack: %v", err)
	}
	defer p.Close()
	if _, ok, err := p.Get(key); !ok || err != nil {
		t.Fatalf("migrated entry: ok=%v err=%v", ok, err)
	}
}

func TestParseEntryName(t *testing.T) {
	cases := []struct {
		name string
		key  Key
		ok   bool
	}{
		{"0123456789abcdef-7.json", Key{"0123456789abcdef", 7}, true},
		{"exp:fig10a-12.json", Key{"exp:fig10a", 12}, true},
		{tmpPrefix + "12345", Key{}, false},
		{"noseed.json", Key{}, false},
		{"0123456789abcdef-7.txt", Key{}, false},
		{"-7.json", Key{}, false},
	}
	for _, c := range cases {
		key, ok := parseEntryName(c.name)
		if ok != c.ok || key != c.key {
			t.Errorf("parseEntryName(%q) = %v, %v; want %v, %v", c.name, key, ok, c.key, c.ok)
		}
	}
}
