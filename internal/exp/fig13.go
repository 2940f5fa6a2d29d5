package exp

import (
	"fmt"

	"ichannels/internal/core"
	"ichannels/internal/model"
	"ichannels/internal/soc"
	"ichannels/internal/stats"
	"ichannels/internal/units"
)

func init() {
	register("fig13", "§6.1", "receiver TP distribution per symbol level in a low-noise system", Fig13)
}

// Fig13 reproduces Fig. 13: the distribution of the receiver's measured
// throttling period (in TSC cycles) for each of the four symbol levels on
// a low-noise system (event rates under 1000/s) with other non-AVX
// applications running. The four ranges must not overlap, with >2K cycles
// of separation — which is why the channel's error rate is ≈0 in low
// noise.
func Fig13(seed int64) (*Report, error) {
	p := model.CannonLake8121U()
	m, err := soc.New(soc.Options{
		Processor:       p,
		RequestedFreq:   2.2 * units.GHz,
		Cores:           2,
		Noise:           soc.WithRates(600, 200), // "low noise": <1000 events/s
		TSCJitterCycles: 250,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	ch, err := core.New(m, core.DefaultParams(core.SameThread, p))
	if err != nil {
		return nil, err
	}

	const perLevel = 60
	schedule := make([]core.Symbol, 0, perLevel*core.NumSymbols)
	for i := 0; i < perLevel; i++ {
		for s := 0; s < core.NumSymbols; s++ {
			schedule = append(schedule, core.Symbol(s))
		}
	}
	measures, err := ch.RunSymbols(schedule)
	if err != nil {
		return nil, err
	}
	groups := make([][]float64, core.NumSymbols)
	for i, mv := range measures {
		s := schedule[i]
		groups[s] = append(groups[s], mv)
	}

	rep := NewReport("fig13", "Receiver TP distribution per level (TSC cycles), low-noise system")
	tab := rep.Table("per-level distribution", "level", "symbol bits", "mean (cycles)", "std", "min", "max")
	for s := core.NumSymbols - 1; s >= 0; s-- {
		sum := stats.Summarize(groups[s])
		hi, lo := core.Symbol(s).Bits()
		tab.AddRow(core.Symbol(s).Level(), fmt.Sprintf("%d%d", hi, lo), f0(sum.Mean), f0(sum.Std), f0(sum.Min), f0(sum.Max))
		rep.Metric(fmt.Sprintf("mean_cycles_%s", core.Symbol(s).Level()), sum.Mean)
	}

	// The paper's headline property: non-overlapping ranges, >2K cycles
	// apart. A handful of noise-hit outliers are trimmed the way the
	// paper's density plot suppresses tails.
	trimmed := make([][]float64, len(groups))
	for i, g := range groups {
		sum := stats.Summarize(g)
		for _, v := range g {
			if v >= sum.P5 && v <= sum.P95 {
				trimmed[i] = append(trimmed[i], v)
			}
		}
	}
	sep := stats.Separable(trimmed, 2000)
	sepVal := 0.0
	if sep {
		sepVal = 1
	}
	rep.Metric("separable_gt_2k_cycles", sepVal)
	rep.Note("paper: the four TP ranges do not overlap and are >2K cycles apart → error rate ≈0 in low noise (model separable=%v)", sep)
	return rep, nil
}
