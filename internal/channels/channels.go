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
//     each bit window.
//
// Both families run on core's slot clock: core.RunSlots drives a
// core.SlotSender and a core.SlotReceiver, the same two agents the
// paper's variants and the baselines use. Retire keeps its own sender
// agent, because a 1-slot runs repeated bursts and a 0-slot parks
// off-core. Both families, and the four single-level baselines in
// internal/baselines, send one bit per slot; SlotDecoder is the one
// calibration, threshold and decode rule they all share.
package channels

import (
	"fmt"

	"ichannels/internal/core"
	"ichannels/internal/stats"
	"ichannels/internal/units"
)

// SlotDecoder is the one-bit-per-slot rule every single-level family
// shares: calibrate on alternating 1,0 pairs, set the threshold midway
// between the mean 1-slot and 0-slot measurements, and decode each slot
// against it. A family supplies run, which transmits raw bits through
// core.RunSlots and so returns exactly one measurement per slot; the
// family's actions, offsets and timing stay its own.
type SlotDecoder struct {
	family        string // prefixes errors, e.g. "baselines: turbocc"
	contrast      string // what calibration looks for, e.g. "thermal contrast"
	oneReadsLower bool   // a 1-slot measures below a 0-slot (NetSpectre)
	threshold     float64
	calibrated    bool
}

// NewSlotDecoder returns an uncalibrated decoder. family and contrast
// name the channel and its physical signal in errors; oneReadsLower is
// the family's fixed polarity.
func NewSlotDecoder(family, contrast string, oneReadsLower bool) SlotDecoder {
	return SlotDecoder{family: family, contrast: contrast, oneReadsLower: oneReadsLower}
}

// Calibrate runs pairs of 1,0 slots, learns the midpoint threshold and
// returns the mean gap between the two classes (oriented so a usable
// channel's gap is positive).
func (d *SlotDecoder) Calibrate(pairs int, run func([]int) ([]float64, error)) (float64, error) {
	if pairs <= 0 {
		return 0, fmt.Errorf("%s: pairs must be positive", d.family)
	}
	bits := make([]int, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		bits = append(bits, 1, 0)
	}
	measures, err := run(bits)
	if err != nil {
		return 0, err
	}
	var ones, zeros float64
	for i := 0; i < len(measures); i += 2 {
		ones += measures[i]
		zeros += measures[i+1]
	}
	ones /= float64(pairs)
	zeros /= float64(pairs)
	gap := ones - zeros
	if d.oneReadsLower {
		gap = zeros - ones
	}
	if gap <= 0 {
		return 0, fmt.Errorf("%s calibration (1→%g, 0→%g) found no %s", d.family, ones, zeros, d.contrast)
	}
	d.threshold = (ones + zeros) / 2
	d.calibrated = true
	return gap, nil
}

// Transmit sends bits, one per slot of period, and decodes them against
// the calibrated threshold.
func (d *SlotDecoder) Transmit(bits []int, run func([]int) ([]float64, error), period units.Duration) (*core.TransmitResult, error) {
	if err := ValidBits(bits); err != nil {
		return nil, err
	}
	if !d.calibrated {
		return nil, fmt.Errorf("%s not calibrated", d.family)
	}
	measures, err := run(bits)
	if err != nil {
		return nil, err
	}
	decoded := make([]int, len(measures))
	res := &core.TransmitResult{SentBits: bits, DecodedBits: decoded, Elapsed: units.Duration(len(bits)) * period}
	for i, m := range measures {
		if (!d.oneReadsLower && m > d.threshold) || (d.oneReadsLower && m < d.threshold) {
			decoded[i] = 1
		}
		if decoded[i] != bits[i] {
			res.SymbolErrors++
		}
	}
	res.BER = stats.BER(bits, decoded)
	if res.Elapsed > 0 {
		res.ThroughputBPS = float64(len(bits)) / res.Elapsed.Seconds()
	}
	return res, nil
}

// ValidBits rejects empty streams and non-binary values.
func ValidBits(bits []int) error {
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
