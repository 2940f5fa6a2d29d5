package ecc

import "fmt"

// CRC8 computes the CRC-8/ATM (polynomial 0x07) checksum of a byte slice.
func CRC8(data []byte) byte {
	var crc byte
	for _, b := range data {
		crc ^= b
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// BytesToBits expands bytes MSB-first into bits.
func BytesToBits(data []byte) []int {
	out := make([]int, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			out = append(out, int(b>>i)&1)
		}
	}
	return out
}

// BitsToBytes packs bits (MSB-first, length divisible by 8) into bytes.
func BitsToBytes(bits []int) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("ecc: bit length %d not divisible by 8", len(bits))
	}
	out := make([]byte, len(bits)/8)
	for i, b := range bits {
		if b&^1 != 0 {
			return nil, fmt.Errorf("ecc: non-bit value %d at index %d", b, i)
		}
		out[i/8] |= byte(b) << (7 - i%8)
	}
	return out, nil
}

// EncodeFrame wraps a payload in a covert-channel frame: 1 length byte,
// payload, CRC-8 — all Hamming(7,4) encoded and interleaved. The result's
// bit length is always even (a whole number of 2-bit covert symbols).
func EncodeFrame(payload []byte, interleaveDepth int) ([]int, error) {
	if len(payload) > 255 {
		return nil, fmt.Errorf("ecc: payload %d bytes exceeds frame limit 255", len(payload))
	}
	raw := make([]byte, 0, len(payload)+2)
	raw = append(raw, byte(len(payload)))
	raw = append(raw, payload...)
	raw = append(raw, CRC8(raw))
	bits := BytesToBits(raw)
	coded, err := HammingEncode(bits)
	if err != nil {
		return nil, err
	}
	inter, err := Interleave(coded, interleaveDepth)
	if err != nil {
		return nil, err
	}
	if len(inter)%2 != 0 {
		inter = append(inter, 0) // pad to a whole covert symbol
	}
	return inter, nil
}

// DecodeFrame reverses EncodeFrame: deinterleave, Hamming-correct, unpack,
// verify length and CRC. It returns the payload, the number of corrected
// bit errors, and an error if the frame is unrecoverable.
func DecodeFrame(bits []int, interleaveDepth int) (payload []byte, corrected int, err error) {
	coded := bits
	if len(coded)%7 != 0 {
		// Remove the symbol-alignment pad.
		if len(coded)%7 == 1 {
			coded = coded[:len(coded)-1]
		} else {
			return nil, 0, fmt.Errorf("ecc: frame length %d is not a codeword multiple", len(bits))
		}
	}
	de, err := Deinterleave(coded, interleaveDepth)
	if err != nil {
		return nil, 0, err
	}
	data, corrected, err := HammingDecode(de)
	if err != nil {
		return nil, corrected, err
	}
	raw, err := BitsToBytes(data)
	if err != nil {
		return nil, corrected, err
	}
	if len(raw) < 2 {
		return nil, corrected, fmt.Errorf("ecc: frame too short (%d bytes)", len(raw))
	}
	n := int(raw[0])
	if len(raw) != n+2 {
		return nil, corrected, fmt.Errorf("ecc: frame length byte %d inconsistent with %d raw bytes", n, len(raw))
	}
	if CRC8(raw[:n+1]) != raw[n+1] {
		return nil, corrected, fmt.Errorf("ecc: CRC mismatch (residual channel errors)")
	}
	return raw[1 : n+1], corrected, nil
}
