package ichannels_test

// Channel encode/decode benchmarks: the layer between soc.Machine and
// scenario.Run. Each sub-benchmark builds one channel on a fixed machine
// outside the timer and then repeats the operation on that machine, so
// ns/op and allocs/op are the cost of one calibration or one
// transmission (the slot loop, the agents and the decode), not of the
// machine build or pool Reset underneath.

import (
	"testing"

	"ichannels/internal/baselines"
	"ichannels/internal/channels"
	"ichannels/internal/core"
	"ichannels/internal/mitigate"
	"ichannels/internal/model"
	"ichannels/internal/soc"
)

// benchChannel is one benchmarked channel family: the processor it runs
// on, how to open it, and its calibration repetitions (the scenario
// registry's defaults).
type benchChannel struct {
	name  string
	proc  func() model.Processor
	open  func(*soc.Machine) (mitigate.Channel, error)
	calib int
}

func openCoreKind(kind core.Kind) func(*soc.Machine) (mitigate.Channel, error) {
	return func(m *soc.Machine) (mitigate.Channel, error) {
		return core.New(m, core.DefaultParams(kind, m.Proc))
	}
}

var benchChannels = []benchChannel{
	{"thread", model.CannonLake8121U, openCoreKind(core.SameThread), 4},
	{"smt", model.CannonLake8121U, openCoreKind(core.SMT), 4},
	{"cores", model.CannonLake8121U, openCoreKind(core.CrossCore), 4},
	{"retire", model.CannonLake8121U, func(m *soc.Machine) (mitigate.Channel, error) { return channels.NewRetire(m) }, 6},
	{"clockmod", model.CannonLake8121U, func(m *soc.Machine) (mitigate.Channel, error) { return channels.NewClockMod(m) }, 4},
	{"netspectre", model.CoffeeLake9700K, func(m *soc.Machine) (mitigate.Channel, error) { return baselines.NewNetSpectre(m) }, 6},
}

// openBenchChannel builds bc on a fresh two-core machine at the
// processor's base frequency. The machine has no interrupt or TSC noise,
// so every iteration does the same work and no noise event can fail one
// of the many calibrations a long run makes.
func openBenchChannel(b *testing.B, bc benchChannel) mitigate.Channel {
	b.Helper()
	p := bc.proc()
	m, err := soc.New(soc.Options{Processor: p, RequestedFreq: p.BaseFreq, Cores: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ch, err := bc.open(m)
	if err != nil {
		b.Fatal(err)
	}
	return ch
}

// BenchmarkChannelCalibrate measures one calibration per iteration.
func BenchmarkChannelCalibrate(b *testing.B) {
	for _, bc := range benchChannels {
		b.Run(bc.name, func(b *testing.B) {
			ch := openBenchChannel(b, bc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ch.Calibrate(bc.calib); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChannelTransmit measures one 32-bit transmission and decode
// per iteration on a channel calibrated once before the timer starts.
func BenchmarkChannelTransmit(b *testing.B) {
	bits := make([]int, 32)
	for i := range bits {
		bits[i] = (i*7 + i/3) & 1
	}
	for _, bc := range benchChannels {
		b.Run(bc.name, func(b *testing.B) {
			ch := openBenchChannel(b, bc)
			if _, err := ch.Calibrate(bc.calib); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var res *core.TransmitResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = ch.Transmit(bits); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.BER, "ber")
		})
	}
}
