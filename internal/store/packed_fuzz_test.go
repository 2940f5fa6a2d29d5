package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
)

// damageRecords is how many records FuzzPackedReadDamage stores, two to
// a segment.
const damageRecords = 4

// FuzzPackedReadDamage damages the segment files under a live packed
// store — byte flips and truncations the fuzzer chooses — and holds the
// read contract for every key:
//
//   - a record whose bytes are intact reads back as the bytes written;
//   - a damaged record misses with an ErrCorrupt error — including a
//     flipped case bit in a field name, which encoding/json alone would
//     accept;
//   - Verify names exactly the records whose reads miss;
//   - a re-put heals every key that missed.
//
// Each op is four bytes: the target segment (high bit set: truncate),
// a big-endian position within it, and the XOR mask of a flip. The seed
// corpus under testdata/fuzz holds one case per damage class.
func FuzzPackedReadDamage(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		keys := make([]Key, damageRecords)
		want := make(map[Key][]byte, damageRecords)
		for i := range keys {
			keys[i] = Key{Hash: "0123456789abcdef", Seed: int64(i + 1)}
			env, err := EncodeEnvelope(keys[i], testResult(keys[i]))
			if err != nil {
				t.Fatal(err)
			}
			want[keys[i]] = env
		}
		// Roll each segment once it holds two records.
		p, err := OpenPackedWith(t.TempDir(), PackedOptions{
			MaxSegmentBytes:    int64(len(segMagic)) + int64(2*(4+len(want[keys[0]]))) - 1,
			DisableAutoCompact: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for _, k := range keys {
			if err := p.PutObject(context.Background(), k, want[k]); err != nil {
				t.Fatal(err)
			}
		}
		refs := make(map[Key]packedRef, len(keys))
		for _, k := range keys {
			refs[k] = p.index[k]
		}
		segs := []int{refs[keys[0]].seg, refs[keys[2]].seg}
		if segs[0] == segs[1] || refs[keys[1]].seg != segs[0] || refs[keys[3]].seg != segs[1] {
			t.Fatalf("records not two to a segment: %+v", refs)
		}
		orig := make(map[int][]byte, len(segs))
		for _, id := range segs {
			if orig[id], err = os.ReadFile(p.segPath(id)); err != nil {
				t.Fatal(err)
			}
		}

		for n := 0; n+4 <= len(ops) && n < 4*8; n += 4 {
			id := segs[int(ops[n]&0x7f)%len(segs)]
			path := p.segPath(id)
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			pos := int64(ops[n+1])<<8 | int64(ops[n+2])
			if ops[n]&0x80 != 0 {
				if err := os.Truncate(path, pos%(info.Size()+1)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if info.Size() == 0 {
				continue
			}
			flipAt(t, path, pos%info.Size(), ops[n+3])
		}

		intact := make(map[Key]bool, len(keys))
		for _, id := range segs {
			now, err := os.ReadFile(p.segPath(id))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if ref := refs[k]; ref.seg == id {
					end := ref.off + ref.length
					intact[k] = end <= int64(len(now)) && bytes.Equal(now[ref.off:end], orig[id][ref.off:end])
				}
			}
		}

		rep, err := p.Verify()
		if err != nil {
			t.Fatal(err)
		}
		named := map[string]bool{}
		for _, pr := range rep.Problems {
			named[pr.Path] = true
		}
		if len(named) != len(rep.Problems) {
			t.Fatalf("Verify named a record twice: %+v", rep.Problems)
		}

		var missed []Key
		for i, k := range keys {
			ref := refs[k]
			path := fmt.Sprintf("%s@%d", p.segPath(ref.seg), ref.off)
			// Alternate which verb meets the damage first.
			first, second := readEnvelope(p, k, i%2 == 0), readEnvelope(p, k, i%2 != 0)
			if first.err != nil {
				if !errors.Is(first.err, ErrCorrupt) || first.ok {
					t.Fatalf("key %v: damaged read gave ok=%v err=%v, want an ErrCorrupt miss", k, first.ok, first.err)
				}
				if intact[k] {
					t.Fatalf("key %v: intact record failed: %v", k, first.err)
				}
				if !named[path] {
					t.Fatalf("key %v: read missed but Verify did not name %s", k, path)
				}
				if second.ok || second.err != nil {
					t.Fatalf("key %v: dropped record read gave ok=%v err=%v, want a clean miss", k, second.ok, second.err)
				}
				missed = append(missed, k)
				continue
			}
			if !first.ok || !second.ok || second.err != nil {
				t.Fatalf("key %v: reads gave %+v then %+v", k, first, second)
			}
			if !intact[k] {
				t.Fatalf("key %v: damaged record still verifies", k)
			}
			if named[path] {
				t.Fatalf("key %v: Verify named %s, but it reads back", k, path)
			}
			for _, r := range []envRead{first, second} {
				if r.raw != nil && !bytes.Equal(r.raw, want[k]) {
					t.Fatalf("key %v: intact record read back as %s", k, r.raw)
				}
				if !bytes.Equal(r.canon, want[k]) {
					t.Fatalf("key %v: served a different result: %s", k, r.canon)
				}
			}
		}
		if len(missed) != len(named) {
			t.Fatalf("Verify named %d records, %d reads missed", len(named), len(missed))
		}

		for _, k := range missed {
			if err := p.PutObject(context.Background(), k, want[k]); err != nil {
				t.Fatal(err)
			}
			for _, getFirst := range []bool{true, false} {
				if r := readEnvelope(p, k, getFirst); !r.ok || r.err != nil || !bytes.Equal(r.canon, want[k]) {
					t.Fatalf("key %v after re-put: %+v", k, r)
				}
			}
			if data, _, _ := p.GetObject(context.Background(), k); !bytes.Equal(data, want[k]) {
				t.Fatalf("key %v: re-put record reads back as %s", k, data)
			}
		}
	})
}

// envRead is one read of a key through Get or GetObject: raw is what
// GetObject served (nil for Get), canon the served result re-encoded.
type envRead struct {
	ok         bool
	err        error
	raw, canon []byte
}

// readEnvelope reads key through Get (get) or GetObject.
func readEnvelope(p *Packed, key Key, get bool) envRead {
	if get {
		res, ok, err := p.Get(key)
		r := envRead{ok: ok, err: err}
		if ok {
			r.canon, r.err = EncodeEnvelope(key, res)
		}
		return r
	}
	data, ok, err := p.GetObject(context.Background(), key)
	r := envRead{ok: ok, err: err, raw: data}
	if ok {
		res, derr := DecodeEnvelope(key, data)
		if derr != nil {
			r.err = fmt.Errorf("served bytes fail verification: %w", derr)
			return r
		}
		r.canon, r.err = EncodeEnvelope(key, res)
	}
	return r
}

// flipAt XORs the byte at off in the file at path with mask.
func flipAt(t *testing.T, path string, off int64, mask byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= mask
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}
