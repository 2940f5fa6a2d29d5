package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"ichannels/internal/scenario"
)

// SegmentsDirName is the subdirectory holding a store's segments and
// sidecars.
const SegmentsDirName = "segments"

// DefaultMaxSegmentBytes is the roll threshold: the active segment
// seals and a new one starts once it grows past this.
const DefaultMaxSegmentBytes int64 = 8 << 20

// autoCompactDenominator triggers background compaction when the dead
// fraction discovered at open reaches 1/autoCompactDenominator of the
// corpus bytes.
const autoCompactDenominator = 4

// segFileRE matches the two file kinds a segments directory owns.
var segFileRE = regexp.MustCompile(`^\d{8}\.(seg|idx)$`)

// PackedOptions tunes OpenPackedWith; the zero value is OpenPacked's
// default.
type PackedOptions struct {
	// MaxSegmentBytes overrides the segment roll threshold (0 =
	// DefaultMaxSegmentBytes).
	MaxSegmentBytes int64
	// DisableAutoCompact turns off the background compaction an
	// open-time rescan otherwise schedules when it finds enough dead
	// bytes (corrupt records, superseded duplicates).
	DisableAutoCompact bool
}

// packedRef locates one live entry in the in-memory index.
type packedRef struct {
	seg    int
	off    int64
	length int64 // framed (prefix + payload)
	ts     int64 // unix-second append time, the MaxAge retention clock
}

// segmentState is one on-disk segment the store has open.
type segmentState struct {
	id     int
	path   string
	f      *os.File
	size   int64
	sealed bool
	// entries accumulates the sidecar rows for an unsealed (active)
	// segment.
	entries []segmentIndexEntry
}

// Packed is the result store: results are appended as framed envelopes
// to an active segment under dir/segments, located through an in-memory
// index loaded from per-segment sidecars — or rebuilt by scanning any
// segment whose sidecar is missing or stale, the crash-safe path. It
// carries the maintenance surface (List, Verify, GC/GCWith) the `store`
// CLI and serve retention drive. Three semantics are deliberate:
//
//   - Put of an existing key is a true no-op: the bytes are
//     deterministic, and appending them again would only create dead
//     bytes in the log.
//   - A read (Get or GetObject) that finds a damaged record drops it
//     from the index (self-healing): the caller sees the usual
//     error-degrades-to-miss contract, and the next Put or PutObject of
//     that key re-materializes it — compaction reclaims the dead bytes
//     later.
//   - GCWith compacts: segments that lost records are rewritten —
//     survivors copied verbatim into fresh segments, old files deleted
//     — so reclaimed bytes actually return to the filesystem.
//
// One process should write a packed directory at a time (the active
// segment is an append cursor); racing writers are detected at segment
// creation (O_EXCL) and pick distinct ids. Fleets share one corpus
// through a single `serve -store DIR -share` process instead.
type Packed struct {
	dir    string
	segDir string
	maxSeg int64
	// now is the retention clock, swappable by tests.
	now func() time.Time

	mu      sync.RWMutex
	index   map[Key]packedRef
	segs    map[int]*segmentState
	active  *segmentState
	nextSeg int
	// deadBytes tracks on-disk bytes no index entry covers (corrupt
	// records, superseded duplicates) — compaction's trigger.
	deadBytes int64

	bg sync.WaitGroup
}

// OpenPacked creates (if needed) and opens the store rooted at dir with
// default options.
func OpenPacked(dir string) (*Packed, error) {
	return OpenPackedWith(dir, PackedOptions{})
}

// OpenPackedWith is OpenPacked with explicit options. Opening loads
// every segment's sidecar; a segment whose sidecar is missing or stale
// is rescanned (truncating any torn tail a killed writer left) and
// resealed, so the full corpus serves after any crash. A directory
// without segments that still holds per-file entries is refused with a
// `store pack` hint and left untouched; the check runs only then, so
// reopening a packed corpus costs nothing extra.
func OpenPackedWith(dir string, opts PackedOptions) (*Packed, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if _, err := os.Stat(filepath.Join(dir, SegmentsDirName)); os.IsNotExist(err) {
		if err := refusePerFile(dir); err != nil {
			return nil, err
		}
	}
	return openPacked(dir, opts)
}

// openPacked is OpenPackedWith without the per-file refusal — the
// opener Pack migrates through.
func openPacked(dir string, opts PackedOptions) (*Packed, error) {
	segDir := filepath.Join(dir, SegmentsDirName)
	if err := os.MkdirAll(segDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	maxSeg := opts.MaxSegmentBytes
	if maxSeg <= 0 {
		maxSeg = DefaultMaxSegmentBytes
	}
	p := &Packed{
		dir: dir, segDir: segDir, maxSeg: maxSeg,
		now:     time.Now,
		index:   map[Key]packedRef{},
		segs:    map[int]*segmentState{},
		nextSeg: 1,
	}
	if err := p.load(); err != nil {
		p.Close()
		return nil, err
	}
	if !opts.DisableAutoCompact && p.deadBytes > 0 {
		var live int64
		for _, ref := range p.index {
			live += ref.length
		}
		if p.deadBytes*autoCompactDenominator >= live+p.deadBytes {
			p.bg.Add(1)
			go func() {
				defer p.bg.Done()
				p.GC() // compaction is the zero-options pass
			}()
		}
	}
	return p, nil
}

// load reads every segment's index (rescanning and resealing as needed)
// and builds the in-memory index.
func (p *Packed) load() error {
	des, err := os.ReadDir(p.segDir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var ids []int
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".seg") || !segFileRE.MatchString(de.Name()) {
			continue
		}
		var id int
		fmt.Sscanf(de.Name(), "%08d.seg", &id)
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := p.loadSegment(id); err != nil {
			return err
		}
		if id >= p.nextSeg {
			p.nextSeg = id + 1
		}
	}
	return nil
}

func (p *Packed) segPath(id int) string {
	return filepath.Join(p.segDir, fmt.Sprintf("%08d.seg", id))
}

func (p *Packed) idxPath(id int) string {
	return filepath.Join(p.segDir, fmt.Sprintf("%08d.idx", id))
}

// loadSegment opens one segment — through its sidecar when valid, by
// rescanning (and resealing) otherwise.
func (p *Packed) loadSegment(id int) error {
	path := p.segPath(id)
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := info.Size()
	idx, ok := readSidecar(p.idxPath(id), size)
	if !ok {
		// Missing or stale sidecar: rebuild it from the segment bytes.
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		sc, err := ScanSegment(data)
		if err != nil {
			// Not a segment at all; leave the file for gc to report.
			return nil
		}
		if sc.ValidBytes < size {
			// Torn tail from a killed writer: truncate it away so the
			// resealed sidecar covers exactly what is on disk.
			if err := os.Truncate(path, sc.ValidBytes); err != nil {
				return fmt.Errorf("store: %w", err)
			}
			size = sc.ValidBytes
		}
		p.deadBytes += sc.CorruptBytes
		ts := info.ModTime().Unix()
		idx = &segmentIndex{Version: segIndexVersion, CoveredBytes: size}
		for _, e := range sc.Entries {
			idx.Entries = append(idx.Entries, segmentIndexEntry{
				Hash: e.Key.Hash, Seed: e.Key.Seed, Off: e.Offset, Len: e.Length, TS: ts,
			})
		}
		if err := writeSidecar(p.idxPath(id), idx); err != nil {
			return err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	p.segs[id] = &segmentState{id: id, path: path, f: f, size: size, sealed: true}
	for _, e := range idx.Entries {
		key := Key{Hash: e.Hash, Seed: e.Seed}
		if old, dup := p.index[key]; dup {
			// Later segments win (a re-put entry supersedes a dropped
			// one); the older record becomes dead bytes.
			p.deadBytes += old.length
		}
		p.index[key] = packedRef{seg: id, off: e.Off, length: e.Len, ts: e.TS}
	}
	return nil
}

// Dir returns the store's root directory.
func (p *Packed) Dir() string { return p.dir }

// WaitMaintenance blocks until any background compaction scheduled at
// open has finished — the deterministic hook tests and Close use.
func (p *Packed) WaitMaintenance() { p.bg.Wait() }

// Close seals the active segment (writing its sidecar atomically) and
// releases file handles. A store abandoned without Close loses nothing:
// the next open rescans the unsealed segment and reseals it.
func (p *Packed) Close() error {
	p.bg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	var firstErr error
	if p.active != nil {
		if err := p.sealLocked(p.active); err != nil {
			firstErr = err
		}
		p.active = nil
	}
	for _, st := range p.segs {
		if st.f != nil {
			if err := st.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			st.f = nil
		}
	}
	return firstErr
}

// sealLocked writes st's sidecar and marks it sealed.
func (p *Packed) sealLocked(st *segmentState) error {
	idx := &segmentIndex{Version: segIndexVersion, CoveredBytes: st.size, Entries: st.entries}
	if err := writeSidecar(p.idxPath(st.id), idx); err != nil {
		return err
	}
	st.sealed = true
	return nil
}

// newActiveLocked creates the next segment file for appends. O_EXCL
// detects another writer racing on the same id; the loser moves on to
// the next.
func (p *Packed) newActiveLocked() error {
	for {
		id := p.nextSeg
		p.nextSeg++
		f, err := os.OpenFile(p.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: new segment: %w", err)
		}
		if _, err := f.WriteString(segMagic); err != nil {
			f.Close()
			os.Remove(p.segPath(id))
			return fmt.Errorf("store: new segment: %w", err)
		}
		st := &segmentState{id: id, path: p.segPath(id), f: f, size: int64(len(segMagic))}
		p.segs[id] = st
		p.active = st
		return nil
	}
}

// segFileLocked returns the open file holding ref's segment, nil when
// that segment is gone (compacted away under a stale ref).
func (p *Packed) segFileLocked(ref packedRef) *os.File {
	if st := p.segs[ref.seg]; st != nil {
		return st.f
	}
	return nil
}

// record reads one record from f, checks its frame and decodes its
// envelope against key: the one integrity check every read, Verify and
// gc apply. It returns the envelope bytes with the decoded result.
func (p *Packed) record(f *os.File, key Key, ref packedRef) ([]byte, *scenario.Result, error) {
	if f == nil {
		return nil, nil, fmt.Errorf("store: entry %s: segment %d not open", key, ref.seg)
	}
	buf := make([]byte, ref.length)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return nil, nil, fmt.Errorf("store: entry %s: segment read: %w", key, err)
	}
	if int64(binary.BigEndian.Uint32(buf))+4 != ref.length {
		return nil, nil, fmt.Errorf("store: entry %s: malformed envelope frame", key)
	}
	res, err := DecodeEnvelope(key, buf[4:])
	if err != nil {
		return nil, nil, err
	}
	return buf[4:], res, nil
}

// read is the one verified read behind Get and GetObject. A record that
// fails is retried once against a fresh ref — a concurrent compaction
// may have relocated it (and closed its old segment) between the index
// lookup and the file read. A record that still fails is dropped from
// the index (its bytes stay dead until compaction), so a damaged record
// is never served and the next Put or PutObject heals the key; the
// caller sees the standard error-degrades-to-miss contract.
func (p *Packed) read(key Key) ([]byte, *scenario.Result, bool, error) {
	var lastErr error
	var lastRef packedRef
	for attempt := 0; attempt < 2; attempt++ {
		p.mu.RLock()
		ref, ok := p.index[key]
		f := p.segFileLocked(ref)
		p.mu.RUnlock()
		if !ok {
			return nil, nil, false, nil
		}
		if attempt > 0 && ref == lastRef {
			break // nothing moved; the record really is damaged
		}
		data, res, err := p.record(f, key, ref)
		if err == nil {
			return data, res, true, nil
		}
		lastErr, lastRef = err, ref
	}
	p.dropRef(key, lastRef)
	return nil, nil, false, lastErr
}

// Get implements Store through the one verified read.
func (p *Packed) Get(key Key) (*scenario.Result, bool, error) {
	_, res, ok, err := p.read(key)
	return res, ok, err
}

// GetObject implements Backend through the one verified read (disk
// reads ignore ctx): the envelope bytes it returns have passed the same
// check Get applies.
func (p *Packed) GetObject(_ context.Context, key Key) ([]byte, bool, error) {
	data, _, ok, err := p.read(key)
	return data, ok, err
}

// dropRef removes a damaged entry from the index — only if it still
// points at the same record, since a concurrent compaction may have
// already relocated the key to fresh, valid bytes.
func (p *Packed) dropRef(key Key, ref packedRef) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur, ok := p.index[key]; ok && cur == ref {
		delete(p.index, key)
		p.deadBytes += ref.length
	}
}

// Put implements Store: frame the canonical envelope and append it to
// the active segment, rolling (and sealing) at the size threshold. An
// already-present key is a no-op — by determinism the bytes would be
// identical, and the log should not accumulate duplicates.
func (p *Packed) Put(key Key, res *scenario.Result) error {
	env, err := EncodeEnvelope(key, res)
	if err != nil {
		return err
	}
	return p.PutObject(context.Background(), key, env)
}

// PutObject appends pre-encoded envelope bytes (the Backend seam; Put
// and pack migration share it; disk writes ignore ctx). The caller
// vouches that data is a valid envelope for key — BackendStore and Pack
// decode before calling.
func (p *Packed) PutObject(_ context.Context, key Key, data []byte) error {
	if len(data) == 0 || int64(len(data)) > maxRecordBytes {
		return fmt.Errorf("store: put %s: envelope of %d bytes outside record bounds", key, len(data))
	}
	frame := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(frame, uint32(len(data)))
	copy(frame[4:], data)
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.index[key]; ok {
		return nil
	}
	return p.appendLocked(key, frame, p.now().Unix())
}

// appendLocked writes one framed record to the active segment and
// indexes it. ts is preserved as given — compaction re-appends with the
// original timestamp so retention clocks never reset.
func (p *Packed) appendLocked(key Key, frame []byte, ts int64) error {
	if p.active == nil {
		if err := p.newActiveLocked(); err != nil {
			return err
		}
	}
	st := p.active
	if _, err := st.f.Write(frame); err != nil {
		// Roll the partial write back so the in-memory size stays the
		// truth; a crash here instead leaves a torn tail the next open
		// truncates away.
		st.f.Truncate(st.size)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	off := st.size
	st.size += int64(len(frame))
	st.entries = append(st.entries, segmentIndexEntry{
		Hash: key.Hash, Seed: key.Seed, Off: off, Len: int64(len(frame)), TS: ts,
	})
	p.index[key] = packedRef{seg: st.id, off: off, length: int64(len(frame)), ts: ts}
	if st.size >= p.maxSeg {
		if err := p.sealLocked(st); err != nil {
			return err
		}
		p.active = nil
	}
	return nil
}

// ListObjects implements Backend.
func (p *Packed) ListObjects(context.Context) ([]Entry, error) { return p.List() }

// List returns every indexed entry sorted by key, sizes in envelope
// bytes. The slice is non-nil even when empty, so `store ls -json`
// emits [] rather than null.
func (p *Packed) List() ([]Entry, error) {
	p.mu.RLock()
	out := make([]Entry, 0, len(p.index))
	for key, ref := range p.index {
		out = append(out, Entry{Key: key, Size: ref.length - 4})
	}
	p.mu.RUnlock()
	sortEntries(out)
	return out, nil
}

// sortedKeysLocked returns the index keys in deterministic order.
func (p *Packed) sortedKeysLocked() []Key {
	keys := make([]Key, 0, len(p.index))
	for k := range p.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

// Verify reads and checks every indexed entry and reports files the
// packed layout does not own (temporaries, foreign files, un-migrated
// per-file entries) as stray. Report-only: unlike a read it never
// drops damaged entries.
func (p *Packed) Verify() (*VerifyReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep := &VerifyReport{}
	for _, key := range p.sortedKeysLocked() {
		ref := p.index[key]
		rep.Entries++
		rep.Bytes += ref.length - 4
		if _, _, err := p.record(p.segFileLocked(ref), key, ref); err != nil {
			rep.Problems = append(rep.Problems, Problem{
				Path: fmt.Sprintf("%s@%d", p.segPath(ref.seg), ref.off), Err: err.Error(),
			})
		}
	}
	foreign, _, err := p.foreignFilesLocked()
	if err != nil {
		return nil, fmt.Errorf("store: verify: %w", err)
	}
	tmps, err := p.tmpFilesLocked(time.Time{})
	if err != nil {
		return nil, fmt.Errorf("store: verify: %w", err)
	}
	rep.Stray = len(foreign) + len(tmps)
	return rep, nil
}

// foreignFilesLocked lists files the layout does not own — anything
// under the root outside segments/, and anything inside segments/ that
// is not a segment, sidecar, or temporary — plus orphan sidecars (an
// .idx whose .seg is gone), which gc removes as stray.
func (p *Packed) foreignFilesLocked() (foreign, orphanIdx []string, err error) {
	err = filepath.WalkDir(p.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if filepath.Dir(path) != p.segDir {
			foreign = append(foreign, path)
			return nil
		}
		if strings.HasPrefix(name, tmpPrefix) {
			return nil // temporaries have their own pass
		}
		if !segFileRE.MatchString(name) {
			foreign = append(foreign, path)
			return nil
		}
		if strings.HasSuffix(name, ".idx") {
			var id int
			fmt.Sscanf(name, "%08d.idx", &id)
			if _, ok := p.segs[id]; !ok {
				orphanIdx = append(orphanIdx, path)
			}
		}
		return nil
	})
	return foreign, orphanIdx, err
}

// tmpFilesLocked lists temporaries in the segments directory older than
// cutoff (zero cutoff = all of them).
func (p *Packed) tmpFilesLocked(cutoff time.Time) ([]string, error) {
	des, err := os.ReadDir(p.segDir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, de := range des {
		if de.IsDir() || !strings.HasPrefix(de.Name(), tmpPrefix) {
			continue
		}
		if !cutoff.IsZero() {
			info, err := de.Info()
			if err != nil || info.ModTime().After(cutoff) {
				continue
			}
		}
		out = append(out, filepath.Join(p.segDir, de.Name()))
	}
	return out, nil
}

// GC is GCWith with zero options: drop damaged records and abandoned
// temporaries, then compact — rewrite segments that lost records so the
// reclaimed bytes return to the filesystem.
func (p *Packed) GC() (*GCReport, error) { return p.GCWith(GCOptions{}) }

// GCWith is the retention + compaction pass: corrupt entries always
// go, then MaxAge and MaxBytes evict intact entries oldest-first by
// append time, and compaction then rewrites every segment holding dead
// bytes: survivors are copied verbatim (frames and timestamps
// preserved) into fresh segments and the old files deleted. Files the
// layout does not own are counted in Skipped and never touched.
func (p *Packed) GCWith(opts GCOptions) (*GCReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep := &GCReport{}

	// Compaction wants every segment sealed; the active one reopens on
	// the next Put.
	if p.active != nil {
		if err := p.sealLocked(p.active); err != nil {
			return nil, err
		}
		p.active = nil
	}

	diskBefore, err := p.segBytesLocked()
	if err != nil {
		return nil, fmt.Errorf("store: gc: %w", err)
	}

	// Pass 1: damaged records (framing or envelope) always go.
	for _, key := range p.sortedKeysLocked() {
		ref := p.index[key]
		if _, _, err := p.record(p.segFileLocked(ref), key, ref); err != nil {
			delete(p.index, key)
			p.deadBytes += ref.length
			rep.RemovedCorrupt++
		}
	}

	// Pass 2: age bound, on the append timestamps the sidecars persist.
	if opts.MaxAge > 0 {
		cutoff := p.now().Add(-opts.MaxAge).Unix()
		for _, key := range p.sortedKeysLocked() {
			if ref := p.index[key]; ref.ts < cutoff {
				delete(p.index, key)
				p.deadBytes += ref.length
				rep.RemovedExpired++
			}
		}
	}

	// Pass 3: size budget over live record bytes, oldest out first
	// (ties broken by key order, so eviction is deterministic).
	if opts.MaxBytes > 0 {
		keys := p.sortedKeysLocked()
		sort.SliceStable(keys, func(i, j int) bool {
			return p.index[keys[i]].ts < p.index[keys[j]].ts
		})
		var total int64
		for _, k := range keys {
			total += p.index[k].length
		}
		for _, k := range keys {
			if total <= opts.MaxBytes {
				break
			}
			ref := p.index[k]
			delete(p.index, k)
			p.deadBytes += ref.length
			total -= ref.length
			rep.RemovedOverBudget++
		}
	}

	// Abandoned temporaries (a live writer holds its temp file for
	// milliseconds; see gcTmpAge) and orphan sidecars.
	tmps, err := p.tmpFilesLocked(time.Now().Add(-gcTmpAge))
	if err != nil {
		return nil, fmt.Errorf("store: gc: %w", err)
	}
	foreign, orphans, err := p.foreignFilesLocked()
	if err != nil {
		return nil, fmt.Errorf("store: gc: %w", err)
	}
	for _, path := range append(tmps, orphans...) {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: gc: %w", err)
		}
		rep.RemovedStray++
	}
	rep.Skipped = len(foreign)

	if err := p.compactLocked(); err != nil {
		return nil, err
	}

	diskAfter, err := p.segBytesLocked()
	if err != nil {
		return nil, fmt.Errorf("store: gc: %w", err)
	}
	if reclaimed := diskBefore - diskAfter; reclaimed > 0 {
		rep.ReclaimedBytes = reclaimed
	}
	rep.Kept = len(p.index)
	return rep, nil
}

// segBytesLocked sums the on-disk segment file sizes.
func (p *Packed) segBytesLocked() (int64, error) {
	var total int64
	for _, st := range p.segs {
		info, err := os.Stat(st.path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// compactLocked rewrites every sealed segment whose on-disk bytes
// exceed its live records: survivors are copied (frame bytes and
// timestamps verbatim, offset order for sequential reads) into a fresh
// active segment, then the old segment and its sidecar are deleted.
// Relocation targets get ids above every pre-existing segment, so the
// snapshot iteration never revisits them. Callers must have sealed the
// active segment first.
func (p *Packed) compactLocked() error {
	bySeg := map[int][]Key{}
	for _, key := range p.sortedKeysLocked() {
		ref := p.index[key]
		bySeg[ref.seg] = append(bySeg[ref.seg], key)
	}
	for _, keys := range bySeg {
		sort.Slice(keys, func(i, j int) bool {
			return p.index[keys[i]].off < p.index[keys[j]].off
		})
	}
	var ids []int
	for id := range p.segs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st := p.segs[id]
		var live int64
		for _, k := range bySeg[id] {
			live += p.index[k].length
		}
		if st.size == int64(len(segMagic))+live {
			continue // fully live: keep as-is
		}
		for _, key := range bySeg[id] {
			ref := p.index[key]
			frame := make([]byte, ref.length)
			if _, err := st.f.ReadAt(frame, ref.off); err != nil {
				return fmt.Errorf("store: gc: rewrite %s: %w", key, err)
			}
			if err := p.appendLocked(key, frame, ref.ts); err != nil {
				return err
			}
		}
		st.f.Close()
		if err := os.Remove(st.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: gc: %w", err)
		}
		if err := os.Remove(p.idxPath(id)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: gc: %w", err)
		}
		delete(p.segs, id)
	}
	if p.active != nil {
		if err := p.sealLocked(p.active); err != nil {
			return err
		}
		p.active = nil
	}
	p.deadBytes = 0
	return nil
}
