// Package baselines reimplements, on the same simulator substrate, the
// four covert channels the paper compares against (§6.2, Fig. 12,
// Table 2):
//
//   - NetSpectre [Schwarz+ ESORICS'19]: single-level AVX2 throttle
//     side-effect on the same hardware thread — 1 bit per transaction.
//   - TurboCC [Kalmbach+ '20]: cross-core Turbo-frequency modulation via
//     PHI licenses — bits take tens of milliseconds because frequency
//     restoration is on the PMU's slow hysteresis.
//   - DFScovert [Alagappan+ VLSI-SoC'17]: software DVFS governor
//     modulation — slower still (tens of ms per governor actuation).
//   - PowerT [Khatamifard+ HPCA'19]: thermal-state modulation — bits ride
//     the millisecond-scale die thermal time constant.
//
// Each baseline actually transmits bits through the simulated mechanism;
// throughput differences against IChannels emerge from mechanism latency,
// exactly as the paper argues. Every baseline implements the one channel
// contract (mitigate.Channel): Calibrate returns the mean one/zero
// measurement gap and Transmit returns a core.TransmitResult.
package baselines

import (
	"fmt"

	"ichannels/internal/core"
	"ichannels/internal/stats"
	"ichannels/internal/units"
)

// calibrationPairs builds the alternating 1,0 pattern every baseline
// calibrates on.
func calibrationPairs(pairs int) ([]int, error) {
	if pairs <= 0 {
		return nil, fmt.Errorf("baselines: pairs must be positive")
	}
	bits := make([]int, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		bits = append(bits, 1, 0)
	}
	return bits, nil
}

// bitMeans returns the mean calibration measurement over the slots that
// sent a 1 and over those that sent a 0.
func bitMeans[T int64 | float64](bits []int, measures []T) (ones, zeros float64) {
	var n1, n0 int
	for i, m := range measures {
		if bits[i] == 1 {
			ones += float64(m)
			n1++
		} else {
			zeros += float64(m)
			n0++
		}
	}
	return ones / float64(n1), zeros / float64(n0)
}

// finishResult assembles a transmission's result (one bit per slot, so
// SymbolErrors counts bit errors).
func finishResult(name string, sent, decoded []int, elapsed units.Duration) (*core.TransmitResult, error) {
	if len(decoded) != len(sent) {
		return nil, fmt.Errorf("baselines: %s decoded %d of %d bits (simulation ended early?)",
			name, len(decoded), len(sent))
	}
	r := &core.TransmitResult{
		SentBits:    sent,
		DecodedBits: decoded,
		BER:         stats.BER(sent, decoded),
		Elapsed:     elapsed,
	}
	for i := range sent {
		if sent[i] != decoded[i] {
			r.SymbolErrors++
		}
	}
	if elapsed > 0 {
		r.ThroughputBPS = float64(len(sent)) / elapsed.Seconds()
	}
	return r, nil
}

func validBits(bits []int) error {
	if len(bits) == 0 {
		return fmt.Errorf("baselines: empty bit stream")
	}
	for i, b := range bits {
		if b&^1 != 0 {
			return fmt.Errorf("baselines: non-bit value %d at index %d", b, i)
		}
	}
	return nil
}
