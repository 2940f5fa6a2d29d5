package exp

import (
	"fmt"
	"math/rand"

	"ichannels/internal/core"
	"ichannels/internal/isa"
	"ichannels/internal/model"
	"ichannels/internal/soc"
	"ichannels/internal/units"
	"ichannels/internal/workload"
)

func init() {
	register("fig14a", "§6.3", "BER vs interrupt / context-switch rate", Fig14a)
	register("fig14b", "§6.3", "decoding errors by App-PHI level × channel-PHI level", Fig14b)
	register("fig14c", "§6.3", "BER vs concurrent App-PHI injection rate", Fig14c)
	register("sevenzip", "§6.3", "BER with the 7-zip proxy running concurrently", SevenZip)
}

// noisyTransmit runs an IccThreadCovert transmission under a given noise
// configuration and optional concurrent app, returning the BER.
func noisyTransmit(noise soc.NoiseConfig, app func(m *soc.Machine) error, nBits int, seed int64) (float64, error) {
	p := model.CannonLake8121U()
	m, err := soc.New(soc.Options{
		Processor:       p,
		RequestedFreq:   2.2 * units.GHz,
		Cores:           2,
		Noise:           noise,
		TSCJitterCycles: 250,
		Seed:            seed,
	})
	if err != nil {
		return 0, err
	}
	ch, err := core.New(m, core.DefaultParams(core.SameThread, p))
	if err != nil {
		return 0, err
	}
	if _, err := ch.Calibrate(6); err != nil {
		return 0, err
	}
	if app != nil {
		if err := app(m); err != nil {
			return 0, err
		}
	}
	rng := rand.New(rand.NewSource(seed + 5))
	res, err := ch.Transmit(randomBits(nBits, rng))
	if err != nil {
		return 0, err
	}
	return res.BER, nil
}

// Fig14a reproduces Fig. 14(a): the channel's bit error rate as a
// function of the interrupt and context-switch rates. Even thousands of
// events per second leave the BER under ≈0.08, because an event must land
// inside the microseconds-long decoding window to corrupt a symbol.
func Fig14a(seed int64) (*Report, error) {
	rep := NewReport("fig14a", "BER vs system event rate (IccThreadCovert)")
	tab := rep.Table("bit error rate", "events/s", "interrupts BER", "ctx-switch BER")
	rates := []float64{1, 10, 100, 1000, 10000}
	const nBits = 160
	for i, r := range rates {
		imin, imax := soc.DefaultInterrupt()
		cmin, cmax := soc.DefaultCtxSwitch()
		berIRQ, err := noisyTransmit(soc.NoiseConfig{
			InterruptRate: r, InterruptMin: imin, InterruptMax: imax,
		}, nil, nBits, seed+int64(i))
		if err != nil {
			return nil, err
		}
		berCtx, err := noisyTransmit(soc.NoiseConfig{
			CtxSwitchRate: r, CtxSwitchMin: cmin, CtxSwitchMax: cmax,
		}, nil, nBits, seed+100+int64(i))
		if err != nil {
			return nil, err
		}
		tab.AddRow(f0(r), f3(berIRQ), f3(berCtx))
		rep.Metric(fmt.Sprintf("ber_irq_%.0f", r), berIRQ)
		rep.Metric(fmt.Sprintf("ber_ctx_%.0f", r), berCtx)
	}
	rep.Note("paper: BER stays below ≈0.08 even in highly noisy systems (thousands of events/s)")
	rep.Note("deviation: at 10⁴ ctx-switches/s the model's BER exceeds the paper's because its decode window (~25-50 µs; guardband steps calibrated at 2.2 GHz) is ~2× the paper's few-µs interval; §6.3's averaging/ECC recovery is available in the ecc package")
	return rep, nil
}

// Fig14b reproduces Fig. 14(b): which (App-PHI level, channel-PHI level)
// combinations decode erroneously when a concurrent application injects
// PHIs during transactions. Errors concentrate where the App's level
// exceeds the channel symbol's level (the App's guardband masks the
// symbol's).
func Fig14b(seed int64) (*Report, error) {
	p := model.CannonLake8121U()
	appLevels := []isa.Class{isa.Vec128Heavy, isa.Vec256Light, isa.Vec256Heavy, isa.Vec512Heavy}
	rep := NewReport("fig14b", "Symbol error rate by App-PHI level × channel symbol level")
	tab := rep.Table("symbol error rate (App injecting at 5000 PHIs/s)",
		"App-PHI \\ ICh-PHI", "L4 (128H)", "L3 (256L)", "L2 (256H)", "L1 (512H)")

	for ai, appCls := range appLevels {
		m, err := soc.New(soc.Options{
			Processor: p, RequestedFreq: 2.2 * units.GHz, Cores: 2,
			TSCJitterCycles: 250, Seed: seed + int64(ai),
		})
		if err != nil {
			return nil, err
		}
		ch, err := core.New(m, core.DefaultParams(core.SameThread, p))
		if err != nil {
			return nil, err
		}
		if _, err := ch.Calibrate(6); err != nil {
			return nil, err
		}
		// Start the interfering app on the other core, then probe each
		// symbol level repeatedly.
		inj := &workload.PHIInjector{Rate: 5000, Class: appCls, BurstIters: 50, Until: units.Time(1<<62 - 1)}
		if _, err := m.Bind(1, 0, inj); err != nil {
			return nil, err
		}
		const per = 24
		row := []string{appCls.String()}
		for s := 0; s < core.NumSymbols; s++ {
			schedule := make([]core.Symbol, per)
			for i := range schedule {
				schedule[i] = core.Symbol(s)
			}
			measures, err := ch.RunSymbols(schedule)
			if err != nil {
				return nil, err
			}
			errs := 0
			for _, mv := range measures {
				if ch.Calibration().Decode(mv) != core.Symbol(s) {
					errs++
				}
			}
			ser := float64(errs) / float64(per)
			row = append(row, f3(ser))
			rep.Metric(fmt.Sprintf("ser_app%s_sym%s", appCls, core.Symbol(s).Level()), ser)
		}
		tab.AddRow(row...)
	}
	rep.Note("paper: errors occur when the App's PHI level exceeds the channel's PHI level (Fig. 14(b), red cells)")
	return rep, nil
}

// Fig14c reproduces Fig. 14(c): BER as a function of the App's PHI
// injection rate, with the App drawing a random level per burst. BER
// rises markedly at high injection rates.
func Fig14c(seed int64) (*Report, error) {
	rep := NewReport("fig14c", "BER vs concurrent App-PHI rate (random levels)")
	tab := rep.Table("bit error rate", "App-PHIs/s", "BER")
	rates := []float64{10, 100, 1000, 10000}
	const nBits = 160
	for i, r := range rates {
		rate := r
		ber, err := noisyTransmit(soc.NoiseConfig{}, func(m *soc.Machine) error {
			inj := &workload.PHIInjector{Rate: rate, Random: true, BurstIters: 50, Until: units.Time(1<<62 - 1)}
			_, err := m.Bind(1, 0, inj)
			return err
		}, nBits, seed+int64(i))
		if err != nil {
			return nil, err
		}
		tab.AddRow(f0(r), f3(ber))
		rep.Metric(fmt.Sprintf("ber_rate_%.0f", r), ber)
	}
	rep.Note("paper: BER increases significantly as the App executes PHIs at higher rates")
	return rep, nil
}

// SevenZip reproduces the paper's §6.3 experiment: the 7-zip proxy (AVX2
// but no AVX-512) runs concurrently while the channel sends data; the
// observed BER stays under 0.07. (The paper transmits for 60 s; the
// simulation transmits a proportionally scaled stream.)
func SevenZip(seed int64) (*Report, error) {
	const nBits = 600 // ≈0.21 s of channel time; same mechanism density as 60 s
	ber, err := noisyTransmit(soc.WithRates(600, 200), func(m *soc.Machine) error {
		zip := &workload.SevenZip{Until: units.Time(1<<62 - 1)}
		_, err := m.Bind(1, 0, zip)
		return err
	}, nBits, seed)
	if err != nil {
		return nil, err
	}
	rep := NewReport("sevenzip", "BER with concurrent 7-zip proxy (AVX2, no AVX-512)")
	tab := rep.Table("7-zip interference", "quantity", "paper", "model")
	tab.AddRow("BER across IChannels", "< 0.07", f3(ber))
	rep.Metric("ber", ber)
	rep.Note("7-zip's 256-bit bursts only mask the lowest symbol levels sporadically; the receiver's 512b_Heavy reference keeps most transactions intact")
	return rep, nil
}
