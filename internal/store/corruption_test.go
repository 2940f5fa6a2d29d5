package store

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestGetRejectsTruncatedEnvelope: a half-written record is an error
// (a degraded miss to the engine), never a served result.
func TestGetRejectsTruncatedEnvelope(t *testing.T) {
	p := openPackedTest(t)
	key := Key{Hash: "0123456789abcdef", Seed: 3}
	if err := p.Put(key, testResult(3)); err != nil {
		t.Fatal(err)
	}
	tearRecord(t, p, key)
	if _, ok, err := p.Get(key); ok || err == nil || !strings.Contains(err.Error(), "segment read") {
		t.Errorf("truncated entry: ok=%v err=%v, want segment-read error", ok, err)
	}
}

// TestDecodeEnvelopeFailurePaths drives the shared verifier (disk reads
// and worker responses alike) through every rejection class directly.
func TestDecodeEnvelopeFailurePaths(t *testing.T) {
	key := Key{Hash: "0123456789abcdef", Seed: 3}
	good, err := EncodeEnvelope(key, testResult(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(key, good); err != nil {
		t.Fatalf("DecodeEnvelope(intact): %v", err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "malformed envelope"},
		{"truncated", good[:len(good)/2], "malformed envelope"},
		{"not-json", []byte("junk"), "malformed envelope"},
		{"bit-flip", flipResultByte(t, good), "checksum mismatch"},
		// encoding/json would decode these to the checksummed result.
		{"field-name-case", bytes.Replace(good, []byte(`"checksum"`), []byte(`"Checksum"`), 1), "canonical"},
		{"leading-space", append([]byte(" "), good...), "canonical"},
		{"trailing-newline", append(append([]byte(nil), good...), '\n'), "canonical"},
		{"spaced-colon", bytes.Replace(good, []byte(`"seed":`), []byte(`"seed": `), 1), "canonical"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := DecodeEnvelope(key, c.data); !IsCorrupt(err) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want a corrupt %q error", err, c.want)
			}
		})
	}
	// The same intact bytes under the wrong key are an identity error:
	// a coordinator must reject a worker answering for another cell.
	if _, err := DecodeEnvelope(Key{Hash: "fedcba9876543210", Seed: 3}, good); err == nil || !strings.Contains(err.Error(), "identifies") {
		t.Errorf("wrong key: err = %v, want identity error", err)
	}
}

// TestEnvelopeRoundTripsEscapedBytes: the canonical-bytes check
// matches the encoder's escaping, in the result payload and in the key.
func TestEnvelopeRoundTripsEscapedBytes(t *testing.T) {
	res := testResult(3)
	res.DecodedPayload = "<&>"
	for _, key := range []Key{{Hash: "0123456789abcdef", Seed: 3}, {Hash: "a<b>&\"c\u00e9", Seed: -7}} {
		good, err := EncodeEnvelope(key, res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEnvelope(key, good)
		if err != nil {
			t.Fatalf("key %v: DecodeEnvelope(intact): %v", key, err)
		}
		if again, _ := EncodeEnvelope(key, got); !bytes.Equal(again, good) {
			t.Fatalf("key %v: round trip changed bytes:\n%s\nwant:\n%s", key, again, good)
		}
	}
}

// flipResultByte flips one digit inside the result payload, leaving the
// recorded checksum vouching for bytes that no longer exist.
func flipResultByte(t *testing.T, env []byte) []byte {
	t.Helper()
	out := append([]byte(nil), env...)
	i := strings.Index(string(out), `"ber":`)
	if i < 0 {
		t.Fatalf("no ber field in %s", out)
	}
	out[i+6] ^= 0x01
	return out
}

// TestVerifyFlagsTruncatedAndBitFlipped: an integrity pass over a
// partially damaged corpus reports exactly the damaged entries.
func TestVerifyFlagsTruncatedAndBitFlipped(t *testing.T) {
	p := openPackedTest(t)
	keys := fillPacked(t, p, 3)
	damageRecord(t, p, keys[1])
	tearRecord(t, p, keys[2])
	rep, err := p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 3 {
		t.Errorf("Entries = %d, want 3", rep.Entries)
	}
	if len(rep.Problems) != 2 {
		t.Fatalf("Problems = %+v, want the truncated and bit-flipped entries", rep.Problems)
	}
}

// TestGCWithEmptyCorpus: a retention pass over nothing is a no-op, not
// an error — including with every retention knob set.
func TestGCWithEmptyCorpus(t *testing.T) {
	p := openPackedTest(t)
	for _, opts := range []GCOptions{{}, {MaxAge: time.Hour}, {MaxBytes: 1}, {MaxAge: time.Hour, MaxBytes: 1}} {
		rep, err := p.GCWith(opts)
		if err != nil {
			t.Fatalf("GCWith(%+v) on empty corpus: %v", opts, err)
		}
		if *rep != (GCReport{}) {
			t.Errorf("GCWith(%+v) on empty corpus = %+v, want zero report", opts, rep)
		}
	}
}

// TestGCWithPartiallyCorruptCorpus: GC removes exactly the damaged
// entries (truncated and bit-flipped) and the survivors still serve.
func TestGCWithPartiallyCorruptCorpus(t *testing.T) {
	p := openPackedTest(t)
	keys := fillPacked(t, p, 4)
	damaged := []Key{keys[1], keys[3]}
	damageRecord(t, p, keys[1])
	tearRecord(t, p, keys[3])
	rep, err := p.GCWith(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedCorrupt != 2 || rep.Kept != 2 {
		t.Fatalf("report = %+v, want 2 removed corrupt, 2 kept", rep)
	}
	for _, k := range damaged {
		if _, ok, err := p.Get(k); ok || err != nil {
			t.Errorf("removed entry %s: ok=%v err=%v, want a clean miss", k, ok, err)
		}
	}
	for _, k := range []Key{keys[0], keys[2]} {
		if _, ok, err := p.Get(k); !ok || err != nil {
			t.Errorf("surviving entry %s: ok=%v err=%v, want served", k, ok, err)
		}
	}
}
