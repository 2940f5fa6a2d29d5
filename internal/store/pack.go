package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// PackReport summarizes one per-file → packed migration.
type PackReport struct {
	// Packed counts entries appended to segments (and their per-file
	// originals removed); AlreadyPacked entries the segment corpus
	// already held (their per-file duplicates are removed too).
	Packed        int `json:"packed"`
	AlreadyPacked int `json:"already_packed,omitempty"`
	// Skipped counts per-file entries that failed envelope verification
	// and were left in place for `store gc` to deal with.
	Skipped int `json:"skipped,omitempty"`
	// Bytes is the payload volume migrated; Segments the segment count
	// after the migration sealed.
	Bytes    int64     `json:"bytes"`
	Segments int       `json:"segments"`
	Problems []Problem `json:"problems,omitempty"`
}

// Pack migrates a per-file corpus — the retired v1 layout, one envelope
// per file under dir/<hash[:2]>/<hash>-<seed>.json — into the packed
// segment layout, in place: every verifying entry is appended to
// segments under dir/segments (envelope bytes copied verbatim, so
// checksums and the byte-identity contract survive untouched) and its
// per-file original removed; entries that fail verification stay where
// they are and are reported. Pack is idempotent and crash-resumable —
// the per-file entry is removed only after its bytes are in a segment,
// the packed Put deduplicates, and a re-run finishes whatever an
// interrupted one left (including a corpus that is already fully
// packed: a no-op). It is the only code that reads per-file entries.
func Pack(dir string) (*PackReport, error) {
	packed, err := openPacked(dir, PackedOptions{DisableAutoCompact: true})
	if err != nil {
		return nil, err
	}
	defer packed.Close()

	rep := &PackReport{}
	entries, err := perFileEntries(dir)
	if err != nil {
		return nil, fmt.Errorf("store: pack: %w", err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(e.path)
		if err == nil {
			_, err = decodeEnvelope(e.key, data)
		}
		if err != nil {
			rep.Skipped++
			rep.Problems = append(rep.Problems, Problem{Path: e.path, Err: err.Error()})
			continue
		}
		packed.mu.RLock()
		_, dup := packed.index[e.key]
		packed.mu.RUnlock()
		if dup {
			rep.AlreadyPacked++
		} else {
			if err := packed.PutObject(context.Background(), e.key, data); err != nil {
				return nil, err
			}
			rep.Packed++
			rep.Bytes += int64(len(data))
		}
		// The segment holds the bytes (or already did); the per-file
		// original is now a duplicate.
		if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: pack: %w", err)
		}
	}
	removeEmptyShards(dir)
	if err := packed.Close(); err != nil {
		return nil, err
	}
	packed.mu.RLock()
	rep.Segments = len(packed.segs)
	packed.mu.RUnlock()
	return rep, nil
}

// perFileEntry is one entry file of the per-file layout.
type perFileEntry struct {
	key  Key
	path string
}

// perFileEntries lists the per-file entries in dir's two-character
// shard directories, sorted by key. Segments, sidecars, temporaries and
// foreign files never parse as entry names, so on a half-packed corpus
// it sees exactly the entries still to migrate.
func perFileEntries(dir string) ([]perFileEntry, error) {
	shards, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []perFileEntry
	for _, shard := range shards {
		if !shard.IsDir() || len(shard.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, shard.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			if key, ok := parseEntryName(f.Name()); ok && f.Type().IsRegular() {
				out = append(out, perFileEntry{key: key, path: filepath.Join(dir, shard.Name(), f.Name())})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].key, out[j].key) })
	return out, nil
}

// refusePerFile fails when dir still holds per-file entries: the packed
// store never reads them, so opening such a directory would silently
// serve an empty corpus. The directory is left untouched.
func refusePerFile(dir string) error {
	entries, err := perFileEntries(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(entries) > 0 {
		return fmt.Errorf("store: %s holds a corpus in the retired per-file layout; migrate it first with 'ichannels store pack %s'", dir, dir)
	}
	return nil
}

// parseEntryName recovers the key from a per-file entry name
// (<hash>-<seed>.json). ok is false for anything else (tmp files,
// foreign files).
func parseEntryName(name string) (Key, bool) {
	base, found := strings.CutSuffix(name, ".json")
	if !found || strings.HasPrefix(name, tmpPrefix) {
		return Key{}, false
	}
	return ParseKeyString(base)
}

// removeEmptyShards clears out the two-hex-character shard directories
// the per-file layout leaves behind once their entries migrate. Best
// effort: a non-empty directory (a skipped corrupt entry, a foreign
// file) simply stays.
func removeEmptyShards(dir string) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range des {
		if de.IsDir() && de.Name() != SegmentsDirName {
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}
}
