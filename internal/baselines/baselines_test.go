package baselines

import (
	"math/rand"
	"testing"

	"ichannels/internal/model"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

func machine(t *testing.T, p model.Processor, freq units.Hertz, seed int64) *soc.Machine {
	t.Helper()
	m, err := soc.New(soc.Options{Processor: p, RequestedFreq: freq, Cores: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomBits(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(2)
	}
	return out
}

func TestNetSpectre(t *testing.T) {
	m := machine(t, model.CoffeeLake9700K(), 3.6*units.GHz, 1)
	ns, err := NewNetSpectre(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Transmit([]int{1}); err == nil {
		t.Fatal("uncalibrated transmit accepted")
	}
	if _, err := ns.Calibrate(5); err != nil {
		t.Fatal(err)
	}
	res, err := ns.Transmit(randomBits(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.BER != 0 {
		t.Fatalf("noise-free NetSpectre BER = %g", res.BER)
	}
	// Paper Table 2: ≈1.5 kb/s — half of IccThreadCovert.
	if res.ThroughputBPS < 1300 || res.ThroughputBPS > 1600 {
		t.Fatalf("throughput %.0f b/s outside the paper band", res.ThroughputBPS)
	}
}

func TestTurboCC(t *testing.T) {
	// TurboCC requires a Turbo operating point where the PHI burst trips
	// Iccmax (Cannon Lake at 3.1 GHz with 512b_Heavy).
	m := machine(t, model.CannonLake8121U(), 3.1*units.GHz, 1)
	tc, err := NewTurboCC(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Calibrate(3); err != nil {
		t.Fatal(err)
	}
	res, err := tc.Transmit(randomBits(12, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.BER != 0 {
		t.Fatalf("TurboCC BER = %g", res.BER)
	}
	// Paper: 61 b/s.
	if res.ThroughputBPS < 55 || res.ThroughputBPS > 67 {
		t.Fatalf("throughput %.1f b/s, want ≈61", res.ThroughputBPS)
	}
}

func TestTurboCCNeedsTurbo(t *testing.T) {
	// At a sub-Turbo operating point the protection never engages and
	// calibration must fail with a diagnosable error.
	m := machine(t, model.CannonLake8121U(), 1.4*units.GHz, 1)
	tc, err := NewTurboCC(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Calibrate(2); err == nil {
		t.Fatal("TurboCC calibrated without a Turbo operating point")
	}
}

func TestDFScovert(t *testing.T) {
	m := machine(t, model.CannonLake8121U(), 2.2*units.GHz, 1)
	d, err := NewDFScovert(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Calibrate(3); err != nil {
		t.Fatal(err)
	}
	res, err := d.Transmit(randomBits(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.BER != 0 {
		t.Fatalf("DFScovert BER = %g", res.BER)
	}
	// Paper: 20 b/s.
	if res.ThroughputBPS < 18 || res.ThroughputBPS > 22 {
		t.Fatalf("throughput %.1f b/s, want ≈20", res.ThroughputBPS)
	}
}

func TestPowerT(t *testing.T) {
	m := machine(t, model.CannonLake8121U(), 2.2*units.GHz, 1)
	p, err := NewPowerT(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Calibrate(4); err != nil {
		t.Fatal(err)
	}
	res, err := p.Transmit(randomBits(24, 5))
	if err != nil {
		t.Fatal(err)
	}
	// The thermal channel is inherently noisier; the paper's point is
	// the ~24× throughput gap, not perfection.
	if res.BER > 0.1 {
		t.Fatalf("PowerT BER = %g", res.BER)
	}
	// Paper: 122 b/s.
	if res.ThroughputBPS < 115 || res.ThroughputBPS > 130 {
		t.Fatalf("throughput %.1f b/s, want ≈122", res.ThroughputBPS)
	}
}

func TestBaselineOrderingMatchesPaper(t *testing.T) {
	// Fig. 12(b): DFScovert < TurboCC < PowerT ≪ IChannels (~2.8 kb/s).
	dfs := 1.0 / (50e-3)   // by construction
	tcc := 1.0 / (16.4e-3) // ≈61
	pt := 1.0 / (8.2e-3)   // ≈122
	if !(dfs < tcc && tcc < pt && pt < 2800) {
		t.Fatal("mechanism-latency ordering broken")
	}
}

func TestValidBitsRejectsJunk(t *testing.T) {
	if err := validBits(nil); err == nil {
		t.Fatal("empty accepted")
	}
	if err := validBits([]int{0, 1, 2}); err == nil {
		t.Fatal("non-bit accepted")
	}
	if err := validBits([]int{0, 1, 1}); err != nil {
		t.Fatalf("valid bits rejected: %v", err)
	}
}

func TestTwoCoreRequirement(t *testing.T) {
	m, err := soc.New(soc.Options{Processor: model.CannonLake8121U(), Cores: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTurboCC(m); err == nil {
		t.Fatal("TurboCC on one core accepted")
	}
	if _, err := NewDFScovert(m); err == nil {
		t.Fatal("DFScovert on one core accepted")
	}
	if _, err := NewPowerT(m); err == nil {
		t.Fatal("PowerT on one core accepted")
	}
}
