// Package stats provides the small statistical toolkit the experiments
// need: summaries, separability checks for multi-level
// distributions, and bit-error-rate accounting.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample set.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P25, P50, P75 float64
	P5, P95       float64
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P5 = Percentile(sorted, 5)
	s.P25 = Percentile(sorted, 25)
	s.P50 = Percentile(sorted, 50)
	s.P75 = Percentile(sorted, 75)
	s.P95 = Percentile(sorted, 95)
	return s
}

// Percentile returns the p-th percentile (0–100) of an ascending-sorted
// slice using linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Separable reports whether the per-level sample groups are pairwise
// non-overlapping with at least gap between the max of one group and the
// min of the next (groups ordered by mean). This is the paper's Fig. 13
// property: the four TP ranges do not overlap, with >2K cycles between
// them.
func Separable(groups [][]float64, gap float64) bool {
	type span struct{ lo, hi, mean float64 }
	spans := make([]span, 0, len(groups))
	for _, g := range groups {
		if len(g) == 0 {
			return false
		}
		s := Summarize(g)
		spans = append(spans, span{s.Min, s.Max, s.Mean})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].mean < spans[j].mean })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo-spans[i-1].hi < gap {
			return false
		}
	}
	return true
}

// BitErrors counts differing bits between two equal-length bit slices.
// It panics on length mismatch: comparing misaligned transmissions is a
// harness bug, not a channel error.
func BitErrors(sent, got []int) int {
	if len(sent) != len(got) {
		panic(fmt.Sprintf("stats: bit slice length mismatch %d vs %d", len(sent), len(got)))
	}
	n := 0
	for i := range sent {
		if sent[i] != got[i] {
			n++
		}
	}
	return n
}

// BER returns the bit-error rate between sent and received bits.
func BER(sent, got []int) float64 {
	if len(sent) == 0 {
		return 0
	}
	return float64(BitErrors(sent, got)) / float64(len(sent))
}
