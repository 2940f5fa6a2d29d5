package ecc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHammingRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]int, (len(raw)/4)*4)
		for i := range bits {
			bits[i] = int(raw[i]) & 1
		}
		code, err := HammingEncode(bits)
		if err != nil {
			return false
		}
		back, corrected, err := HammingDecode(code)
		if err != nil || corrected != 0 {
			return false
		}
		if len(back) != len(bits) {
			return false
		}
		for i := range bits {
			if back[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHammingCorrectsEverySingleBitError(t *testing.T) {
	// Exhaustive: all 16 data nibbles × all 7 error positions.
	for data := 0; data < 16; data++ {
		bits := []int{data >> 3 & 1, data >> 2 & 1, data >> 1 & 1, data & 1}
		code, err := HammingEncode(bits)
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < 7; pos++ {
			corrupt := append([]int(nil), code...)
			corrupt[pos] ^= 1
			back, corrected, err := HammingDecode(corrupt)
			if err != nil {
				t.Fatal(err)
			}
			if corrected != 1 {
				t.Fatalf("data %d pos %d: corrected = %d", data, pos, corrected)
			}
			for i := range bits {
				if back[i] != bits[i] {
					t.Fatalf("data %d pos %d: decode mismatch", data, pos)
				}
			}
		}
	}
}

func TestHammingValidation(t *testing.T) {
	if _, err := HammingEncode([]int{1, 0, 1}); err == nil {
		t.Fatal("length not ÷4 accepted")
	}
	if _, err := HammingEncode([]int{1, 0, 1, 2}); err == nil {
		t.Fatal("non-bit accepted")
	}
	if _, _, err := HammingDecode([]int{1, 0, 1}); err == nil {
		t.Fatal("length not ÷7 accepted")
	}
	if _, _, err := HammingDecode([]int{1, 0, 1, 0, 1, 0, 3}); err == nil {
		t.Fatal("non-bit codeword accepted")
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	f := func(raw []byte, depthRaw uint8) bool {
		depth := int(depthRaw)%16 + 1
		bits := make([]int, len(raw))
		for i := range bits {
			bits[i] = int(raw[i]) & 1
		}
		inter, err := Interleave(bits, depth)
		if err != nil || len(inter) != len(bits) {
			return false
		}
		back, err := Deinterleave(inter, depth)
		if err != nil {
			return false
		}
		for i := range bits {
			if back[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveValidation(t *testing.T) {
	if _, err := Interleave([]int{1}, 0); err == nil {
		t.Fatal("zero depth accepted")
	}
	if _, err := Deinterleave([]int{1}, -1); err == nil {
		t.Fatal("negative depth accepted")
	}
}

func TestCRC8KnownVectors(t *testing.T) {
	if got := CRC8([]byte{}); got != 0 {
		t.Fatalf("CRC8(empty) = %#x", got)
	}
	// CRC-8/ATM check value: CRC8("123456789") = 0xF4.
	if got := CRC8([]byte("123456789")); got != 0xF4 {
		t.Fatalf("CRC8 check = %#x, want 0xF4", got)
	}
}

func TestBytesBitsRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		back, err := BitsToBytes(BytesToBits(data))
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitsToBytesValidation(t *testing.T) {
	if _, err := BitsToBytes([]int{1, 0, 1}); err == nil {
		t.Fatal("length not ÷8 accepted")
	}
	if _, err := BitsToBytes([]int{1, 0, 1, 0, 1, 0, 1, 5}); err == nil {
		t.Fatal("non-bit accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("secret-key-material")
	frame, err := EncodeFrame(payload, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame)%2 != 0 {
		t.Fatal("frame must be a whole number of 2-bit symbols")
	}
	// Length byte, payload and CRC, Hamming(7,4)-coded, padded to even.
	wantBits := (len(payload) + 2) * 8 / 4 * 7
	wantBits += wantBits % 2
	if len(frame) != wantBits {
		t.Fatalf("frame %d bits, want %d", len(frame), wantBits)
	}
	back, corrected, err := DecodeFrame(frame, 7)
	if err != nil {
		t.Fatal(err)
	}
	if corrected != 0 || !bytes.Equal(back, payload) {
		t.Fatalf("roundtrip failed: %q (%d corrected)", back, corrected)
	}
}

func TestFrameCorrectsScatteredErrors(t *testing.T) {
	payload := []byte("0123456789abcdef")
	frame, err := EncodeFrame(payload, 7)
	if err != nil {
		t.Fatal(err)
	}
	// One error every 7 bits of the *interleaved* stream lands in
	// distinct codewords after deinterleaving with the right geometry;
	// scatter a few far apart instead to stay safely correctable.
	corrupt := append([]int(nil), frame...)
	for _, pos := range []int{3, 60, 120, 200} {
		if pos < len(corrupt) {
			corrupt[pos] ^= 1
		}
	}
	back, corrected, err := DecodeFrame(corrupt, 7)
	if err != nil {
		t.Fatalf("decode failed after scattered errors: %v", err)
	}
	if corrected == 0 || !bytes.Equal(back, payload) {
		t.Fatalf("correction failed: %q, corrected %d", back, corrected)
	}
}

func TestFrameBurstErrorSurvivesInterleaving(t *testing.T) {
	payload := []byte("burst-resilience")
	depth := 7
	frame, err := EncodeFrame(payload, depth)
	if err != nil {
		t.Fatal(err)
	}
	// A contiguous burst of `depth` errors: interleaving spreads it into
	// distinct codewords, each correctable.
	corrupt := append([]int(nil), frame...)
	start := 20
	for i := 0; i < depth; i++ {
		corrupt[start+i] ^= 1
	}
	back, corrected, err := DecodeFrame(corrupt, depth)
	if err != nil {
		t.Fatalf("burst decode failed: %v", err)
	}
	if corrected != depth || !bytes.Equal(back, payload) {
		t.Fatalf("burst correction: %q, corrected %d (want %d)", back, corrected, depth)
	}
}

func TestFrameDetectsUncorrectableCorruption(t *testing.T) {
	payload := []byte("x")
	frame, _ := EncodeFrame(payload, 2)
	rng := rand.New(rand.NewSource(1))
	corrupt := append([]int(nil), frame...)
	// Massive corruption: CRC must catch what Hamming cannot fix.
	for i := range corrupt {
		if rng.Intn(3) == 0 {
			corrupt[i] ^= 1
		}
	}
	if _, _, err := DecodeFrame(corrupt, 2); err == nil {
		t.Fatal("heavily corrupted frame decoded silently")
	}
}

func TestFrameValidation(t *testing.T) {
	if _, err := EncodeFrame(make([]byte, 256), 7); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if _, _, err := DecodeFrame([]int{1, 0, 1}, 7); err == nil {
		t.Fatal("bad frame length accepted")
	}
}
