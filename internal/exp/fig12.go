package exp

import (
	"fmt"
	"math/rand"

	"ichannels/internal/baselines"
	"ichannels/internal/core"
	"ichannels/internal/model"
	"ichannels/internal/units"
)

func init() {
	register("fig12a", "§6.2", "IccThreadCovert vs NetSpectre throughput", Fig12a)
	register("fig12b", "§6.2", "IChannels vs DFScovert/TurboCC/PowerT throughput", Fig12b)
}

// runIChannel calibrates and transmits nBits over one IChannels variant,
// returning measured goodput-relevant results.
func runIChannel(kind core.Kind, nBits int, seed int64) (*core.TransmitResult, error) {
	p := model.CannonLake8121U()
	m, err := newMachine(p, 2.2*units.GHz, 2, seed)
	if err != nil {
		return nil, err
	}
	ch, err := core.New(m, core.DefaultParams(kind, p))
	if err != nil {
		return nil, err
	}
	if _, err := ch.Calibrate(6); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 99))
	return ch.Transmit(randomBits(nBits, rng))
}

// Fig12a reproduces Fig. 12(a): IccThreadCovert transmits two bits per
// reset-time cycle where NetSpectre's single-level gadget carries one —
// a 2× throughput advantage at comparable cycle times.
func Fig12a(seed int64) (*Report, error) {
	res, err := runIChannel(core.SameThread, 64, seed)
	if err != nil {
		return nil, err
	}
	// NetSpectre runs on the same class of machine (same-thread gadget).
	p := model.CoffeeLake9700K()
	m, err := newMachine(p, 3.6*units.GHz, 1, seed+1)
	if err != nil {
		return nil, err
	}
	ns, err := baselines.NewNetSpectre(m)
	if err != nil {
		return nil, err
	}
	if _, err := ns.Calibrate(6); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 7))
	nres, err := ns.Transmit(randomBits(64, rng))
	if err != nil {
		return nil, err
	}

	ratio := res.ThroughputBPS / nres.ThroughputBPS
	rep := NewReport("fig12a", "IccThreadCovert vs NetSpectre normalized throughput")
	tab := rep.Table("same-hardware-thread channels", "channel", "bits/transaction", "throughput (b/s)", "BER", "normalized")
	tab.AddRow("NetSpectre", "1", f0(nres.ThroughputBPS), f3(nres.BER), "1.0")
	tab.AddRow("IccThreadCovert", "2", f0(res.ThroughputBPS), f3(res.BER), fmt.Sprintf("%.2f", ratio))
	rep.Metric("iccthread_bps", res.ThroughputBPS)
	rep.Metric("netspectre_bps", nres.ThroughputBPS)
	rep.Metric("ratio", ratio)
	rep.Metric("iccthread_ber", res.BER)
	rep.Note("paper: 2× (two bits per multi-level transaction vs one per single-level transaction)")
	return rep, nil
}

// Fig12b reproduces Fig. 12(b): throughput of IccSMTcovert /
// IccCoresCovert against the three slower power-management channels.
// The paper's numbers: DFScovert 20 b/s, TurboCC 61 b/s, PowerT 122 b/s,
// IChannels 2899 b/s (145× / 47× / 24×).
func Fig12b(seed int64) (*Report, error) {
	p := model.CannonLake8121U()
	rng := rand.New(rand.NewSource(seed + 3))

	smt, err := runIChannel(core.SMT, 64, seed)
	if err != nil {
		return nil, err
	}
	cores, err := runIChannel(core.CrossCore, 64, seed+1)
	if err != nil {
		return nil, err
	}

	mDfs, err := newMachine(p, 2.2*units.GHz, 2, seed+2)
	if err != nil {
		return nil, err
	}
	dfs, err := baselines.NewDFScovert(mDfs)
	if err != nil {
		return nil, err
	}
	if _, err := dfs.Calibrate(3); err != nil {
		return nil, err
	}
	dres, err := dfs.Transmit(randomBits(10, rng))
	if err != nil {
		return nil, err
	}

	mTc, err := newMachine(p, 3.1*units.GHz, 2, seed+3)
	if err != nil {
		return nil, err
	}
	tc, err := baselines.NewTurboCC(mTc)
	if err != nil {
		return nil, err
	}
	if _, err := tc.Calibrate(3); err != nil {
		return nil, err
	}
	tres, err := tc.Transmit(randomBits(12, rng))
	if err != nil {
		return nil, err
	}

	mPt, err := newMachine(p, 2.2*units.GHz, 2, seed+4)
	if err != nil {
		return nil, err
	}
	pt, err := baselines.NewPowerT(mPt)
	if err != nil {
		return nil, err
	}
	if _, err := pt.Calibrate(4); err != nil {
		return nil, err
	}
	pres, err := pt.Transmit(randomBits(24, rng))
	if err != nil {
		return nil, err
	}

	ich := (smt.ThroughputBPS + cores.ThroughputBPS) / 2
	rep := NewReport("fig12b", "Cross-SMT / cross-core channel throughput comparison")
	tab := rep.Table("throughput (b/s)", "channel", "paper", "model", "BER", "IChannels ratio (model)")
	tab.AddRow("DFScovert", "20", f0(dres.ThroughputBPS), f3(dres.BER), fmt.Sprintf("%.0f×", ich/dres.ThroughputBPS))
	tab.AddRow("TurboCC", "61", f0(tres.ThroughputBPS), f3(tres.BER), fmt.Sprintf("%.0f×", ich/tres.ThroughputBPS))
	tab.AddRow("PowerT", "122", f0(pres.ThroughputBPS), f3(pres.BER), fmt.Sprintf("%.1f×", ich/pres.ThroughputBPS))
	tab.AddRow("IccSMTcovert", "2899", f0(smt.ThroughputBPS), f3(smt.BER), "-")
	tab.AddRow("IccCoresCovert", "2899", f0(cores.ThroughputBPS), f3(cores.BER), "-")
	rep.Metric("dfscovert_bps", dres.ThroughputBPS)
	rep.Metric("turbocc_bps", tres.ThroughputBPS)
	rep.Metric("powert_bps", pres.ThroughputBPS)
	rep.Metric("iccsmt_bps", smt.ThroughputBPS)
	rep.Metric("icccores_bps", cores.ThroughputBPS)
	rep.Metric("ratio_vs_powert", ich/pres.ThroughputBPS)
	rep.Metric("ratio_vs_turbocc", ich/tres.ThroughputBPS)
	rep.Metric("ratio_vs_dfscovert", ich/dres.ThroughputBPS)
	rep.Note("paper ratios: 145× / 47× / 24× over DFScovert / TurboCC / PowerT; the model's slot is ~20 µs longer than the paper's 690 µs cycle, giving ≈2.8 kb/s")
	return rep, nil
}
