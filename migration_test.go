package ichannels_test

// Migration conformance: a corpus in the retired per-file layout is
// refused by every opener until `store pack` migrates it; after that it
// must serve a resumed run and a fresh server with byte-identical
// output — cold == migrated, every post-migration cell marked cached.
// This is the promise that lets an operator pack an old corpus without
// anyone downstream noticing.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ichannels"
	"ichannels/internal/store"
)

const migrationSpec = "examples/sweeps/specs/crosscore_noise.json"

// writePerFileCorpus lays out the cell results of a sweep's NDJSON
// stream the way the per-file layout stored them: one envelope per
// result at dir/<hash[:2]>/<hash>-<seed>.json.
func writePerFileCorpus(t *testing.T, dir string, lines [][]byte) {
	t.Helper()
	for _, ln := range lines {
		var cell ichannels.SweepCellLineJSON
		if err := json.Unmarshal(ln, &cell); err != nil {
			t.Fatal(err)
		}
		key := store.Key{Hash: cell.Hash, Seed: cell.Seed}
		data, err := store.EncodeEnvelope(key, cell.Result)
		if err != nil {
			t.Fatal(err)
		}
		shard := filepath.Join(dir, cell.Hash[:2])
		if err := os.MkdirAll(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shard, key.String()+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStorePackMigrationConformance(t *testing.T) {
	storeDir := t.TempDir()
	args := []string{"sweep", "run", migrationSpec, "-ndjson", "-parallel", "4", "-store", storeDir, "-resume"}

	// A cold no-store run supplies the results of the per-file fixture.
	cold := runCLI(t, "sweep", "run", migrationSpec, "-ndjson", "-parallel", "4")
	for _, ln := range cold[:len(cold)-1] {
		if wl, _ := parseWireLine(t, ln); wl.Cached {
			t.Fatal("cold cell marked cached")
		}
	}
	writePerFileCorpus(t, storeDir, cold[:len(cold)-1])

	// Resuming over the un-migrated corpus is refused with the pack
	// hint, and the directory is left exactly as it was.
	cmd := exec.Command(buildCLI(t), args...)
	refusal, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("resume over a per-file corpus succeeded:\n%s", refusal)
	}
	if !strings.Contains(string(refusal), "ichannels store pack "+storeDir) {
		t.Fatalf("refusal does not name store pack:\n%s", refusal)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "segments")); !os.IsNotExist(err) {
		t.Fatalf("refused open created segments/ (stat err %v)", err)
	}

	// Migrate in place via the CLI, exactly as an operator would.
	out := runCLI(t, "store", "pack", storeDir)
	if len(out) == 0 || !bytes.Contains(out[len(out)-1], []byte(fmt.Sprintf("packed %d entries", len(cold)-1))) {
		t.Fatalf("store pack said: %s", bytes.Join(out, []byte("\n")))
	}
	// Nothing per-file survives except the segments directory.
	des, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.Name() != "segments" {
			t.Fatalf("per-file remnant %q after pack", de.Name())
		}
	}

	// The packed corpus still verifies through the same CLI surface.
	verify := runCLI(t, "store", "verify", storeDir)
	last := string(verify[len(verify)-1])
	if !strings.Contains(last, "0 corrupt") {
		t.Fatalf("store verify after pack: %s", last)
	}

	// A resumed run over the migrated corpus: byte-identical stream,
	// every cell served from the store.
	warm := runCLI(t, args...)
	if len(warm) != len(cold) {
		t.Fatalf("migrated run emitted %d lines, cold %d", len(warm), len(cold))
	}
	for i, ln := range warm[:len(warm)-1] {
		wl, res := parseWireLine(t, ln)
		if !wl.Cached {
			t.Errorf("migrated cell %d not served from the packed store", i)
		}
		_, coldRes := parseWireLine(t, cold[i])
		if !bytes.Equal(res, coldRes) {
			t.Errorf("migrated cell %d result differs from cold run:\n%s\nwant:\n%s", i, res, coldRes)
		}
	}
	if !bytes.Equal(warm[len(warm)-1], cold[len(cold)-1]) {
		t.Errorf("migrated aggregate differs from cold run:\n%s\nwant:\n%s",
			warm[len(warm)-1], cold[len(cold)-1])
	}

	// A fresh server over the packed corpus serves the sweep entirely
	// from segments, byte-identical again.
	data, err := os.ReadFile(migrationSpec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newStoreServer(t, storeDir))
	defer srv.Close()
	http := postNDJSON(t, srv, "/v1/sweeps", data)
	if len(http) != len(cold) {
		t.Fatalf("http emitted %d lines, cold %d", len(http), len(cold))
	}
	for i, ln := range http[:len(http)-1] {
		wl, res := parseWireLine(t, ln)
		if !wl.Cached {
			t.Errorf("http cell %d not served from the packed store", i)
		}
		_, coldRes := parseWireLine(t, cold[i])
		if !bytes.Equal(res, coldRes) {
			t.Errorf("http cell %d result differs from cold run", i)
		}
	}
	if !bytes.Equal(http[len(http)-1], cold[len(cold)-1]) {
		t.Error("http aggregate differs from cold run after migration")
	}

	// And gc over the packed layout stays a safe no-op on a live corpus.
	gc := runCLI(t, "store", "gc", storeDir)
	if !strings.Contains(string(gc[len(gc)-1]), "removed 0 corrupt") {
		t.Fatalf("store gc after pack: %s", gc[len(gc)-1])
	}
}
