package core

import (
	"fmt"
	"math"
	"sort"
)

// Calibration holds the receiver's learned decision rule: the mean
// measurement (in TSC cycles) per symbol, the midpoint thresholds between
// adjacent clusters on the measurement axis, and the cluster→symbol
// mapping. The paper's receiver does exactly this: it case-matches the
// measured TP against four pre-learned ranges (Fig. 3, Fig. 13).
type Calibration struct {
	// MeanCycles is the mean receiver measurement for each symbol.
	MeanCycles [NumSymbols]float64
	// Thresholds are the NumSymbols-1 decision boundaries, ascending on
	// the measurement axis.
	Thresholds []float64
	// ClusterSymbol maps the i-th measurement cluster (ascending) to the
	// symbol it represents.
	ClusterSymbol [NumSymbols]Symbol
	// Gap is the smallest distance in cycles between the extremes of
	// adjacent clusters observed during calibration (Fig. 13's >2K-cycle
	// separation when positive).
	Gap float64

	// thresholds backs Thresholds, so a calibration is one allocation.
	thresholds [NumSymbols - 1]float64
}

// NewCalibration builds a calibration from per-symbol measurement groups
// (groups[s] holds the calibration measurements for symbol s).
func NewCalibration(groups [NumSymbols][]float64) (*Calibration, error) {
	type cluster struct {
		sym      Symbol
		mean     float64
		min, max float64
	}
	// Only each group's mean and extremes matter. They are summed and
	// compared in stats.Summarize's order, so the bits match it.
	var clusters [NumSymbols]cluster
	for s, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("core: no calibration samples for symbol %d", s)
		}
		c := cluster{sym: Symbol(s), min: math.Inf(1), max: math.Inf(-1)}
		var sum float64
		for _, x := range g {
			sum += x
			if x < c.min {
				c.min = x
			}
			if x > c.max {
				c.max = x
			}
		}
		c.mean = sum / float64(len(g))
		clusters[s] = c
	}
	// Insertion sort by mean: the order sort.Slice gives at this size,
	// ties included, without its reflection-based swapper.
	for i := 1; i < len(clusters); i++ {
		for j := i; j > 0 && clusters[j].mean < clusters[j-1].mean; j-- {
			clusters[j], clusters[j-1] = clusters[j-1], clusters[j]
		}
	}

	cal := &Calibration{}
	cal.Thresholds = cal.thresholds[:0]
	gap := 0.0
	for i, c := range clusters {
		cal.MeanCycles[c.sym] = c.mean
		cal.ClusterSymbol[i] = c.sym
		if i > 0 {
			cal.Thresholds = append(cal.Thresholds, (clusters[i-1].mean+c.mean)/2)
			g := c.min - clusters[i-1].max
			if i == 1 || g < gap {
				gap = g
			}
		}
	}
	cal.Gap = gap
	for i := 1; i < len(cal.Thresholds); i++ {
		if cal.Thresholds[i] <= cal.Thresholds[i-1] {
			return nil, fmt.Errorf("core: calibration clusters are not distinct (thresholds %v)", cal.Thresholds)
		}
	}
	return cal, nil
}

// Decode maps a receiver measurement (TSC cycles) to the nearest symbol.
func (c *Calibration) Decode(cycles float64) Symbol {
	i := sort.SearchFloat64s(c.Thresholds, cycles)
	return c.ClusterSymbol[i]
}

// Separable reports whether calibration observed non-overlapping clusters
// at least minGap cycles apart.
func (c *Calibration) Separable(minGap float64) bool { return c.Gap >= minGap }
