// Package channels implements covert channels beyond the paper's
// current-management family. Each channel here implements the one
// channel contract (mitigate.Channel: Calibrate returns the signal gap,
// Transmit returns a core.TransmitResult) and is registered as a
// first-class scenario kind in internal/scenario, so it is reachable from
// every surface (CLI, HTTP, sweeps, refinement, store, distributed tier)
// without surface-specific code.
//
// Two families live here today:
//
//   - Retire: retirement-stage contention between SMT siblings
//     (arXiv 2307.12486). The sender modulates occupancy of the shared
//     retire/delivery bandwidth; the receiver decodes from its own
//     unhalted-cycle counter, not from wall-clock timing, so TSC jitter
//     does not touch the signal.
//
//   - ClockMod: duty-cycle throttling as the carrier
//     (arXiv 2404.05823). The sender programs the package T-states
//     (IA32_CLOCK_MODULATION); the receiver times a fixed scalar loop in
//     each bit window, the windowed decode shared with the TurboCC and
//     DFScovert frequency baselines.
package channels

import (
	"fmt"

	"ichannels/internal/core"
	"ichannels/internal/stats"
	"ichannels/internal/units"
)

// validBits rejects empty streams and non-binary values.
func validBits(bits []int) error {
	if len(bits) == 0 {
		return fmt.Errorf("channels: empty bit stream")
	}
	for i, b := range bits {
		if b != 0 && b != 1 {
			return fmt.Errorf("channels: bit %d is %d, want 0 or 1", i, b)
		}
	}
	return nil
}

// alternating builds the 1,0 calibration pattern used by both families.
func alternating(pairs int) []int {
	bits := make([]int, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		bits = append(bits, 1, 0)
	}
	return bits
}

// learnThreshold splits the calibration measurements by the known sent bit
// and returns the midpoint threshold and the one/zero mean gap. what names
// the physical contrast for the error message.
func learnThreshold(bits []int, measures []float64, what string) (threshold, gap float64, err error) {
	var ones, zeros []float64
	for i, m := range measures {
		if bits[i] == 1 {
			ones = append(ones, m)
		} else {
			zeros = append(zeros, m)
		}
	}
	mo, mz := stats.Summarize(ones).Mean, stats.Summarize(zeros).Mean
	if mo <= mz {
		return 0, 0, fmt.Errorf("channels: calibration found no %s contrast", what)
	}
	return (mo + mz) / 2, mo - mz, nil
}

// finish decodes measures against threshold and assembles the result
// (one bit per slot, so SymbolErrors counts bit errors).
func finish(sent []int, measures []float64, threshold float64, elapsed units.Duration) *core.TransmitResult {
	decoded := make([]int, len(measures))
	for i, m := range measures {
		if m > threshold {
			decoded[i] = 1
		}
	}
	res := &core.TransmitResult{
		SentBits:    sent,
		DecodedBits: decoded,
		BER:         stats.BER(sent, decoded),
		Elapsed:     elapsed,
	}
	for i := range sent {
		if sent[i] != decoded[i] {
			res.SymbolErrors++
		}
	}
	if elapsed > 0 {
		res.ThroughputBPS = float64(len(sent)) / elapsed.Seconds()
	}
	return res
}
