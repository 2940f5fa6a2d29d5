package workload

import (
	"testing"

	"ichannels/internal/isa"
	"ichannels/internal/model"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

func machine(t *testing.T, seed int64) *soc.Machine {
	t.Helper()
	m, err := soc.New(soc.Options{Processor: model.CannonLake8121U(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPhasedLoopStopsAtDeadline(t *testing.T) {
	m := machine(t, 1)
	pl := &PhasedLoop{
		Label:  "p",
		Phases: []Phase{{Kernel: isa.Loop64b, Iters: 100}, {Kernel: isa.Loop256Heavy, Iters: 50}},
		Until:  units.Time(200 * units.Microsecond),
	}
	th, err := m.Bind(0, 0, pl)
	if err != nil {
		t.Fatal(err)
	}
	m.RunFor(400 * units.Microsecond)
	if !th.Stopped() {
		t.Fatal("phased loop did not stop at its deadline")
	}
}

func TestPhasedLoopEmptyStops(t *testing.T) {
	m := machine(t, 1)
	pl := &PhasedLoop{Label: "e", Until: units.Time(units.Second)}
	th, err := m.Bind(0, 0, pl)
	if err != nil {
		t.Fatal(err)
	}
	m.RunFor(10 * units.Microsecond)
	if !th.Stopped() {
		t.Fatal("empty phased loop must stop immediately")
	}
}

func TestPowerVirusRaisesLicense(t *testing.T) {
	m := machine(t, 2)
	v := &PhasedLoop{
		Label:  "power-virus",
		Phases: []Phase{{Kernel: isa.Loop512Heavy, Iters: 2000}},
		Until:  units.Time(100 * units.Microsecond),
	}
	if _, err := m.Bind(0, 0, v); err != nil {
		t.Fatal(err)
	}
	m.RunFor(60 * units.Microsecond)
	if m.PMU.Licenses()[0] != isa.Vec512Heavy {
		t.Fatalf("virus license = %v", m.PMU.Licenses()[0])
	}
}

func TestCalculixProxyAlternatesPhases(t *testing.T) {
	p := NewCalculixProxy(units.Time(units.Second))
	if len(p.Phases) < 2 {
		t.Fatal("calculix proxy needs phases")
	}
	sawScalar, sawAVX := false, false
	for _, ph := range p.Phases {
		if ph.Kernel.Class == isa.Scalar64 {
			sawScalar = true
		}
		if ph.Kernel.Class.AVX() {
			sawAVX = true
		}
	}
	if !sawScalar || !sawAVX {
		t.Fatal("calculix proxy must alternate non-AVX and AVX2 phases")
	}
}

func TestSevenZipNeverUsesAVX512(t *testing.T) {
	m := machine(t, 3)
	zip := &SevenZip{Until: units.Time(5 * units.Millisecond)}
	if _, err := m.Bind(0, 0, zip); err != nil {
		t.Fatal(err)
	}
	m.RunFor(5 * units.Millisecond)
	for _, lic := range m.PMU.Licenses() {
		if lic.AVX512() {
			t.Fatal("7-zip proxy must not touch AVX-512 (paper §6.3)")
		}
	}
	// It must have exercised AVX2 at least once.
	if m.Cores[0].AVX256Wakes() == 0 {
		t.Fatal("7-zip proxy never used AVX2")
	}
}

func TestPHIInjectorValidate(t *testing.T) {
	if (&PHIInjector{Rate: 0, Class: isa.Vec256Heavy}).Validate() == nil {
		t.Fatal("zero rate accepted")
	}
	if (&PHIInjector{Rate: 10, Class: isa.Class(99)}).Validate() == nil {
		t.Fatal("invalid class accepted")
	}
	if (&PHIInjector{Rate: 10, Random: true}).Validate() != nil {
		t.Fatal("random injector rejected")
	}
}

func TestPHIInjectorApproximatesRate(t *testing.T) {
	m := machine(t, 4)
	inj := &PHIInjector{Rate: 2000, Class: isa.Vec256Heavy, BurstIters: 10, Until: units.Time(50 * units.Millisecond)}
	if _, err := m.Bind(1, 0, inj); err != nil {
		t.Fatal(err)
	}
	m.RunFor(50 * units.Millisecond)
	// Each burst touches the license; count grants+touches indirectly via
	// PMU stats: every burst after decay re-requests. Cheaper check: the
	// machine spent a plausible amount of time with a PHI license.
	grants := m.PMU.Stats().Grants
	// 2000/s × 50 ms = ~100 bursts; consecutive bursts inside one
	// hysteresis window share a grant, so expect ≳10 and ≲120 grants.
	if grants < 10 || grants > 130 {
		t.Fatalf("grants = %d for 100 expected bursts", grants)
	}
}

func TestPHIInjectorRandomDrawsAllLevels(t *testing.T) {
	// Bursts ~1 ms apart leave room for the license to decay between
	// them, so the sampled license reflects each burst's own level
	// rather than a sticky maximum.
	m := machine(t, 5)
	inj := &PHIInjector{Rate: 1000, Random: true, BurstIters: 5, Until: units.Time(80 * units.Millisecond)}
	if _, err := m.Bind(1, 0, inj); err != nil {
		t.Fatal(err)
	}
	seen := map[isa.Class]bool{}
	for i := 0; i < 1600; i++ {
		m.RunFor(50 * units.Microsecond)
		seen[m.PMU.Licenses()[1]] = true
	}
	phiKinds := 0
	for c := range seen {
		if c.PHI() {
			phiKinds++
		}
	}
	if phiKinds < 3 {
		t.Fatalf("random injector exercised only %d PHI levels (%v)", phiKinds, seen)
	}
}
