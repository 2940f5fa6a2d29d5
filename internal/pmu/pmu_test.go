package pmu

import (
	"fmt"
	"testing"
	"testing/quick"

	"ichannels/internal/isa"
	"ichannels/internal/pdn"
	"ichannels/internal/power"
	"ichannels/internal/sched"
	"ichannels/internal/units"
)

// fakeCore implements the Core interface with scriptable state.
type fakeCore struct {
	id         int
	busy       bool
	active     isa.Class
	granted    []isa.Class
	grantTimes []units.Time
	downgrades []isa.Class
	freq       units.Hertz
	halts      int
	halted     bool
	duty       float64
}

func (f *fakeCore) ID() int                { return f.id }
func (f *fakeCore) Busy() bool             { return f.busy }
func (f *fakeCore) ActiveClass() isa.Class { return f.active }
func (f *fakeCore) GrantLicense(c isa.Class, now units.Time) {
	f.granted = append(f.granted, c)
	f.grantTimes = append(f.grantTimes, now)
}
func (f *fakeCore) DowngradeLicense(c isa.Class, now units.Time) {
	f.downgrades = append(f.downgrades, c)
}
func (f *fakeCore) SetFrequency(fr units.Hertz, now units.Time) { f.freq = fr }
func (f *fakeCore) SetDutyCycle(d float64, now units.Time)      { f.duty = d }
func (f *fakeCore) SetHalted(h bool, now units.Time) {
	f.halted = h
	if h {
		f.halts++
	}
}

func testGuardband() GuardbandTable {
	return GuardbandTable{
		PerClassPerGHz: [isa.NumClasses]units.Volt{
			0, units.MV(1), units.MV(3.5), units.MV(6), units.MV(8.5), units.MV(10.5), units.MV(13.5),
		},
		CoreWeights: []float64{1.0, 0.8},
	}
}

func testConfig() Config {
	var cdyn power.CdynModel
	for i := range cdyn.PerClass {
		cdyn.PerClass[i] = float64(i+2) * 1e-9
	}
	cdyn.Idle = 0.25e-9
	return Config{
		Guardband:          testGuardband(),
		VF:                 power.VFCurve{V0: 0.5465, K1: 0.0312, K2: 0.04233},
		Limits:             power.Limits{IccMax: 29, VccMax: 1.15, TjMax: 100},
		Cdyn:               cdyn,
		Leakage:            power.LeakageModel{IRef: 2, VRef: 0.82, TempCoeff: 0.008, TRef: 50},
		LicenseHysteresis:  650 * units.Microsecond,
		FreqRestoreDelay:   15 * units.Millisecond,
		FreqStep:           100 * units.MHz,
		PLLRelock:          7 * units.Microsecond,
		RequestedFrequency: 2.2 * units.GHz,
		VR:                 pdn.DefaultConfig(pdn.MBVR),
	}
}

func newTestPMU(t testing.TB, cfg Config, ncores int) (*PMU, *sched.Queue, []*fakeCore) {
	t.Helper()
	q := sched.NewQueue()
	p, err := New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	fakes := make([]*fakeCore, ncores)
	cores := make([]Core, ncores)
	for i := range fakes {
		fakes[i] = &fakeCore{id: i}
		cores[i] = fakes[i]
	}
	if err := p.AttachCores(cores); err != nil {
		t.Fatal(err)
	}
	return p, q, fakes
}

func TestSetClockDutyFansOut(t *testing.T) {
	p, _, fakes := newTestPMU(t, testConfig(), 2)
	p.SetClockDuty(0.25)
	for i, f := range fakes {
		if f.duty != 0.25 {
			t.Fatalf("core %d duty = %g, want 0.25", i, f.duty)
		}
	}
	p.SetClockDuty(1)
	if fakes[0].duty != 1 {
		t.Fatalf("duty = %g after restore", fakes[0].duty)
	}
	for _, d := range []float64{0, -1, 1.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duty %g accepted", d)
				}
			}()
			p.SetClockDuty(d)
		}()
	}
}

func TestGuardbandValidate(t *testing.T) {
	if err := testGuardband().Validate(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	bad := testGuardband()
	bad.PerClassPerGHz[0] = units.MV(1)
	if bad.Validate() == nil {
		t.Error("nonzero scalar guardband accepted")
	}
	bad = testGuardband()
	bad.PerClassPerGHz[3] = units.MV(2) // below class 2
	if bad.Validate() == nil {
		t.Error("non-monotone table accepted")
	}
	bad = testGuardband()
	bad.CoreWeights = nil
	if bad.Validate() == nil {
		t.Error("missing weights accepted")
	}
	bad = testGuardband()
	bad.CoreWeights = []float64{0.9}
	if bad.Validate() == nil {
		t.Error("first weight ≠ 1 accepted")
	}
}

func TestGuardbandSingleScalesWithFrequency(t *testing.T) {
	g := testGuardband()
	v1 := g.Single(isa.Vec256Heavy, 1*units.GHz)
	v2 := g.Single(isa.Vec256Heavy, 2*units.GHz)
	if v2 < 1.99*v1 || v2 > 2.01*v1 {
		t.Fatalf("guardband not ∝ F: %v vs %v", v1, v2)
	}
}

func TestGuardbandSumWeights(t *testing.T) {
	g := testGuardband()
	one := g.Sum([]isa.Class{isa.Vec256Heavy, isa.Scalar64}, 1*units.GHz)
	two := g.Sum([]isa.Class{isa.Vec256Heavy, isa.Vec256Heavy}, 1*units.GHz)
	// Two equal contributors: 1 + 0.8 = 1.8×.
	if ratio := float64(two / one); ratio < 1.79 || ratio > 1.81 {
		t.Fatalf("two-core ratio = %g, want 1.8", ratio)
	}
}

func TestGuardbandSumOrdersContributions(t *testing.T) {
	g := testGuardband()
	// Mixed classes: the larger contribution must get weight 1.
	mixed := g.Sum([]isa.Class{isa.Vec128Heavy, isa.Vec512Heavy}, 1*units.GHz)
	want := g.Single(isa.Vec512Heavy, 1*units.GHz) + units.Volt(0.8)*g.Single(isa.Vec128Heavy, 1*units.GHz)
	diff := float64(mixed - want)
	if diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mixed sum = %v, want %v", mixed, want)
	}
}

func TestGuardbandMax(t *testing.T) {
	g := testGuardband()
	if g.Max(2, 1*units.GHz) != g.Sum([]isa.Class{isa.Vec512Heavy, isa.Vec512Heavy}, 1*units.GHz) {
		t.Fatal("Max must equal all-cores-512H sum")
	}
}

// Property: Sum is monotone — upgrading any core's class never lowers the
// total guardband.
func TestPropertyGuardbandMonotone(t *testing.T) {
	g := testGuardband()
	f := func(a, b uint8) bool {
		c1 := isa.Class(int(a) % isa.NumClasses)
		c2 := isa.Class(int(b) % isa.NumClasses)
		base := g.Sum([]isa.Class{c1, c2}, 2*units.GHz)
		if int(c1) < isa.NumClasses-1 {
			up := g.Sum([]isa.Class{c1 + 1, c2}, 2*units.GHz)
			if up < base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLicenseGrantAfterRamp(t *testing.T) {
	p, q, cores := newTestPMU(t, testConfig(), 2)
	cores[0].busy = true
	cores[0].active = isa.Vec256Heavy
	p.RequestLicense(0, isa.Vec256Heavy)
	if len(cores[0].granted) != 0 {
		t.Fatal("grant must wait for the voltage ramp")
	}
	q.RunUntil(units.Time(100 * units.Microsecond))
	if len(cores[0].granted) != 1 || cores[0].granted[0] != isa.Vec256Heavy {
		t.Fatalf("granted = %v", cores[0].granted)
	}
	// TP = SVID latency (1.5 µs) + 8.5 mV × 2.2 / 1 mV/µs ≈ 20.2 µs.
	tp := cores[0].grantTimes[0].Microseconds()
	if tp < 19 || tp < 0 || tp > 22 {
		t.Fatalf("grant at %g µs", tp)
	}
	if p.Licenses()[0] != isa.Vec256Heavy {
		t.Fatal("PMU license not updated")
	}
}

func TestSerializedTransitions(t *testing.T) {
	p, q, cores := newTestPMU(t, testConfig(), 2)
	cores[0].busy, cores[1].busy = true, true
	cores[0].active, cores[1].active = isa.Vec256Heavy, isa.Vec128Heavy
	p.RequestLicense(0, isa.Vec256Heavy)
	p.RequestLicense(1, isa.Vec128Heavy)
	q.RunUntil(units.Time(200 * units.Microsecond))
	if len(cores[0].granted) != 1 || len(cores[1].granted) != 1 {
		t.Fatal("both grants must eventually land")
	}
	// Core 1's grant must come strictly after core 0's (FIFO on the VR).
	if !(cores[1].grantTimes[0] > cores[0].grantTimes[0]) {
		t.Fatalf("grants not serialized: %v vs %v", cores[1].grantTimes[0], cores[0].grantTimes[0])
	}
	if p.Stats().SerializedWaits == 0 {
		t.Fatal("second request should have queued")
	}
}

func TestLicenseDecayAfterHysteresis(t *testing.T) {
	p, q, cores := newTestPMU(t, testConfig(), 1)
	cores[0].busy = true
	cores[0].active = isa.Vec256Heavy
	p.RequestLicense(0, isa.Vec256Heavy)
	q.RunUntil(units.Time(50 * units.Microsecond))
	// The core goes idle; the license must decay ~650 µs after last use.
	cores[0].busy = false
	cores[0].active = isa.Scalar64
	q.RunUntil(units.Time(500 * units.Microsecond))
	if len(cores[0].downgrades) != 0 {
		t.Fatal("license decayed before the hysteresis")
	}
	q.RunUntil(units.Time(800 * units.Microsecond))
	if len(cores[0].downgrades) != 1 || cores[0].downgrades[0] != isa.Scalar64 {
		t.Fatalf("downgrades = %v", cores[0].downgrades)
	}
	// Voltage must return to the baseline after the down-ramp.
	q.RunUntil(units.Time(900 * units.Microsecond))
	base := testConfig().VF.Voltage(p.Frequency())
	v := p.Voltage(0, q.Now())
	if d := float64(v - base); d > 1e-6 || d < -1e-6 {
		t.Fatalf("voltage %v, want baseline %v", v, base)
	}
}

func TestActiveUseBlocksDecay(t *testing.T) {
	p, q, cores := newTestPMU(t, testConfig(), 1)
	cores[0].busy = true
	cores[0].active = isa.Vec256Heavy
	p.RequestLicense(0, isa.Vec256Heavy)
	// The core keeps executing 256H past the hysteresis window.
	q.RunUntil(units.Time(2 * units.Millisecond))
	if len(cores[0].downgrades) != 0 {
		t.Fatal("license must not decay while the class is in active use")
	}
}

func TestIccmaxProtectionDownshifts(t *testing.T) {
	cfg := testConfig()
	cfg.RequestedFrequency = 3.1 * units.GHz
	p, q, cores := newTestPMU(t, cfg, 2)
	if p.Frequency() != 3.1*units.GHz {
		t.Fatalf("initial frequency %v", p.Frequency())
	}
	cores[0].busy, cores[1].busy = true, true
	cores[0].active = isa.Vec512Heavy
	cores[1].active = isa.Scalar64
	p.RequestLicense(0, isa.Vec512Heavy)
	q.RunUntil(units.Time(300 * units.Microsecond))
	if p.Frequency() >= 3.1*units.GHz {
		t.Fatalf("no protective downshift: %v", p.Frequency())
	}
	if p.Stats().FreqDownshifts == 0 {
		t.Fatal("downshift not counted")
	}
	if cores[0].halts == 0 {
		t.Fatal("PLL relock must halt the cores")
	}
	if cores[0].halted || cores[1].halted {
		t.Fatal("cores must resume after the relock")
	}
}

func TestFrequencyRestoresAfterDelay(t *testing.T) {
	cfg := testConfig()
	cfg.RequestedFrequency = 3.1 * units.GHz
	p, q, cores := newTestPMU(t, cfg, 2)
	cores[0].busy, cores[1].busy = true, true
	cores[0].active = isa.Vec512Heavy
	cores[1].active = isa.Scalar64
	p.RequestLicense(0, isa.Vec512Heavy)
	q.RunUntil(units.Time(300 * units.Microsecond))
	down := p.Frequency()
	if down >= 3.1*units.GHz {
		t.Fatalf("expected downshift, at %v", down)
	}
	// PHI stops; license decays; after the restore delay the Turbo bin
	// must come back.
	cores[0].active = isa.Scalar64
	cores[0].busy = false
	q.RunUntil(units.Time(30 * units.Millisecond))
	if p.Frequency() != 3.1*units.GHz {
		t.Fatalf("frequency not restored: %v", p.Frequency())
	}
	if p.Stats().FreqRestores == 0 {
		t.Fatal("restore not counted")
	}
}

func TestSecureModeGrantsInstantly(t *testing.T) {
	p, q, cores := newTestPMU(t, testConfig(), 2)
	p.SetSecure(true)
	q.RunUntil(units.Time(200 * units.Microsecond)) // worst-case ramp settles
	vSecure := p.Voltage(0, q.Now())
	base := testConfig().VF.Voltage(p.Frequency())
	if vSecure <= base {
		t.Fatal("secure mode must pin an elevated guardband")
	}
	before := q.Now()
	p.RequestLicense(0, isa.Vec512Heavy)
	if len(cores[0].granted) != 1 || cores[0].grantTimes[0] != before {
		t.Fatal("secure-mode grant must be immediate")
	}
	// Voltage must not move for the grant.
	q.RunUntil(before.Add(50 * units.Microsecond))
	if p.Voltage(0, q.Now()) != vSecure {
		t.Fatal("secure-mode grant must not trigger a transition")
	}
}

func TestSecureModeBlocksDecayRetarget(t *testing.T) {
	p, q, _ := newTestPMU(t, testConfig(), 1)
	p.SetSecure(true)
	q.RunUntil(units.Time(200 * units.Microsecond))
	v := p.Voltage(0, q.Now())
	p.RequestLicense(0, isa.Vec256Heavy)
	q.RunUntil(units.Time(2 * units.Millisecond))
	if p.Voltage(0, q.Now()) != v {
		t.Fatal("secure-mode voltage must stay pinned across license decay")
	}
}

func TestPerCoreVRIndependentTransitions(t *testing.T) {
	cfg := testConfig()
	cfg.PerCoreVR = true
	cfg.VR = pdn.DefaultConfig(pdn.LDO)
	p, q, cores := newTestPMU(t, cfg, 2)
	cores[0].busy, cores[1].busy = true, true
	cores[0].active, cores[1].active = isa.Vec256Heavy, isa.Vec256Heavy
	p.RequestLicense(0, isa.Vec256Heavy)
	p.RequestLicense(1, isa.Vec256Heavy)
	if p.Stats().SerializedWaits != 0 {
		t.Fatal("per-core VRs must not serialize across cores")
	}
	q.RunUntil(units.Time(100 * units.Microsecond))
	if len(cores[0].granted) != 1 || len(cores[1].granted) != 1 {
		t.Fatal("grants missing")
	}
	// Each core's guardband covers only its own load: equal targets.
	if p.TargetVoltage(0) != p.TargetVoltage(1) {
		t.Fatal("symmetric loads must produce symmetric per-core targets")
	}
}

func TestSetRequestedFrequency(t *testing.T) {
	p, q, cores := newTestPMU(t, testConfig(), 2)
	p.SetRequestedFrequency(1.2 * units.GHz)
	q.RunUntil(units.Time(300 * units.Microsecond))
	if p.Frequency() != 1.2*units.GHz {
		t.Fatalf("downshift to 1.2 GHz failed: %v", p.Frequency())
	}
	if cores[0].freq != 1.2*units.GHz {
		t.Fatal("cores not told about the new frequency")
	}
	p.SetRequestedFrequency(2.2 * units.GHz)
	q.RunUntil(q.Now().Add(2 * units.Millisecond))
	if p.Frequency() != 2.2*units.GHz {
		t.Fatalf("restore to 2.2 GHz failed: %v", p.Frequency())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.LicenseHysteresis = 0
	if _, err := New(bad, sched.NewQueue()); err == nil {
		t.Fatal("zero hysteresis accepted")
	}
	bad = testConfig()
	bad.FreqStep = 0
	if _, err := New(bad, sched.NewQueue()); err == nil {
		t.Fatal("zero freq step accepted")
	}
	if _, err := New(testConfig(), nil); err == nil {
		t.Fatal("nil queue accepted")
	}
}

func TestLifecycleErrors(t *testing.T) {
	q := sched.NewQueue()
	p, err := New(testConfig(), q)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(testConfig()); err == nil {
		t.Fatal("Reset before AttachCores accepted")
	}
	if err := p.AttachCores(nil); err == nil {
		t.Fatal("empty core list accepted")
	}
	fakes := []Core{&fakeCore{}}
	if err := p.AttachCores(fakes); err != nil {
		t.Fatal(err)
	}
	if err := p.AttachCores(fakes); err == nil {
		t.Fatal("second AttachCores accepted")
	}
}

func TestUseBeforeInitializePanics(t *testing.T) {
	q := sched.NewQueue()
	p, _ := New(testConfig(), q)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.RequestLicense(0, isa.Vec256Heavy)
}

// drivePMU runs a script that exercises every piece of PMU state: license
// grants serialized on the shared regulator, touches, a decay after the
// reset-time, a software frequency change, and a restore left in flight
// with secure mode's retarget queued behind it.
func drivePMU(p *PMU, q *sched.Queue, cores []*fakeCore) {
	cores[0].busy, cores[1].busy = true, true
	cores[0].active, cores[1].active = isa.Vec256Heavy, isa.Vec512Heavy
	p.RequestLicense(0, isa.Vec256Heavy)
	p.RequestLicense(1, isa.Vec512Heavy)
	q.RunUntil(q.Now().Add(100 * units.Microsecond))
	p.TouchLicense(0, isa.Vec256Heavy)
	cores[0].busy, cores[0].active = false, isa.Scalar64
	q.RunUntil(q.Now().Add(2 * units.Millisecond))
	p.SetRequestedFrequency(1.2 * units.GHz)
	q.RunUntil(q.Now().Add(units.Millisecond))
	p.SetRequestedFrequency(2 * units.GHz)
	q.RunUntil(q.Now().Add(units.Microsecond))
	p.SetSecure(true)
}

// pmuTranscript renders what the PMU shows its callers and what it did to
// its cores; two PMUs in the same state under the same script render the
// same transcript.
func pmuTranscript(p *PMU, q *sched.Queue, cores []*fakeCore) string {
	out := fmt.Sprintf("now=%v freq=%v lic=%v stats=%+v secure=%v\n",
		q.Now(), p.Frequency(), p.Licenses(), p.Stats(), p.Secure())
	for i, c := range cores {
		out += fmt.Sprintf("core %d: v=%v target=%v %+v\n",
			i, p.Voltage(i, q.Now()), p.TargetVoltage(i), *c)
	}
	return out
}

// TestResetMatchesFreshlyAttached: a PMU that has granted, decayed and
// changed frequency, once Reset, is indistinguishable from a freshly
// attached one — same operating point, licenses, voltages and counters —
// and replays the same license transcript.
func TestResetMatchesFreshlyAttached(t *testing.T) {
	cfg := testConfig()
	used, q, cores := newTestPMU(t, cfg, 2)
	drivePMU(used, q, cores)
	q.Reset()
	if err := used.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	for i, c := range cores {
		*c = fakeCore{id: i, freq: c.freq}
	}
	fresh, fq, fcores := newTestPMU(t, cfg, 2)
	if got, want := pmuTranscript(used, q, cores), pmuTranscript(fresh, fq, fcores); got != want {
		t.Fatalf("reset PMU:\n%s\nfresh PMU:\n%s", got, want)
	}
	drivePMU(used, q, cores)
	drivePMU(fresh, fq, fcores)
	if got, want := pmuTranscript(used, q, cores), pmuTranscript(fresh, fq, fcores); got != want {
		t.Fatalf("replay after Reset:\n%s\nfresh replay:\n%s", got, want)
	}
	if len(cores[1].granted) == 0 || len(cores[0].downgrades) == 0 || !fresh.restoreQueued || len(fresh.queue[0]) == 0 {
		t.Fatalf("script exercised too little: %s", pmuTranscript(fresh, fq, fcores))
	}
}

// clearLogs empties the fake cores' callback logs in place, so a
// measured loop's appends reuse their capacity.
func clearLogs(cores []*fakeCore) {
	for _, c := range cores {
		c.granted, c.grantTimes, c.downgrades = c.granted[:0], c.grantTimes[:0], c.downgrades[:0]
	}
}

// TestLicenseCycleAllocFree pins the license path's prebound
// continuations: once warm, a license cycle schedules every step on
// callbacks bound by AttachCores and allocates nothing. The three cases
// together run every continuation: grant, decay retarget, protective
// downshift with its relock and deferred ramp, and the frequency restore
// (restore check, voltage raise, relock).
func TestLicenseCycleAllocFree(t *testing.T) {
	turbo := testConfig()
	turbo.RequestedFrequency = 3.1 * units.GHz
	settle := 300 * units.Microsecond
	t.Run("grant then decay", func(t *testing.T) {
		p, q, cores := newTestPMU(t, testConfig(), 1)
		c := cores[0]
		idle := 2 * testConfig().LicenseHysteresis
		allocs := testing.AllocsPerRun(20, func() {
			clearLogs(cores)
			c.busy, c.active = true, isa.Vec256Heavy
			p.RequestLicense(0, isa.Vec256Heavy)
			q.RunUntil(q.Now().Add(settle))
			c.busy, c.active = false, isa.Scalar64
			q.RunUntil(q.Now().Add(idle))
		})
		if allocs != 0 {
			t.Fatalf("license cycle allocated %v per run", allocs)
		}
		if st := p.Stats(); st.Grants != 21 || st.Downgrades != 21 {
			t.Fatalf("stats %+v, want 21 grants and 21 downgrades", st)
		}
	})
	t.Run("grant behind a protective downshift", func(t *testing.T) {
		p, q, cores := newTestPMU(t, turbo, 2)
		allocs := testing.AllocsPerRun(20, func() {
			q.Reset()
			if err := p.Reset(turbo); err != nil {
				panic(err)
			}
			clearLogs(cores)
			cores[0].busy, cores[0].active = true, isa.Vec512Heavy
			cores[1].busy, cores[1].active = true, isa.Scalar64
			p.RequestLicense(0, isa.Vec512Heavy)
			q.RunUntil(q.Now().Add(settle))
		})
		if allocs != 0 {
			t.Fatalf("downshift and grant allocated %v per run", allocs)
		}
		if st := p.Stats(); st.FreqDownshifts != 1 || st.Grants != 1 {
			t.Fatalf("stats %+v, want one downshift and one grant", st)
		}
	})
	t.Run("frequency restore after a downshift", func(t *testing.T) {
		p, q, cores := newTestPMU(t, turbo, 2)
		cores[1].busy, cores[1].active = true, isa.Scalar64
		downshift := func() {
			cores[0].busy, cores[0].active = true, isa.Vec512Heavy
			p.RequestLicense(0, isa.Vec512Heavy)
			q.RunUntil(q.Now().Add(settle))
		}
		downshift()
		allocs := testing.AllocsPerRun(20, func() {
			clearLogs(cores)
			// Idle past the decay and the restore delay: the Turbo
			// bin comes back. Then the next downshift.
			cores[0].busy, cores[0].active = false, isa.Scalar64
			q.RunUntil(q.Now().Add(2 * turbo.FreqRestoreDelay))
			if p.Frequency() != turbo.RequestedFrequency {
				panic(fmt.Sprintf("frequency not restored: %v", p.Frequency()))
			}
			downshift()
		})
		if allocs != 0 {
			t.Fatalf("restore cycle allocated %v per run", allocs)
		}
		if st := p.Stats(); st.FreqRestores != 21 || st.FreqDownshifts != 22 {
			t.Fatalf("stats %+v, want 21 restores and 22 downshifts", st)
		}
	})
}

// TestPerCoreVROverlappingGrants: per-core regulators run two grants at
// once, each behind its own protective downshift when the second request
// arrives inside the first's PLL relock (0 and 3 µs), behind none when
// it arrives after (8 µs), or behind a second downshift (12 µs). Every
// regulator keeps its own in-flight transition, license vector and
// relock continuation, so each core gets its own class at the same
// picosecond it always has. The 0 and 3 µs cases end at 3 GHz, above
// the 2.1 GHz the two granted licenses allow (the 12 µs case): each
// grant sizes its downshift from the licenses granted when it starts,
// and the relock that completes last sets the clock. That is the
// model's behaviour, pinned here so a change to it is deliberate.
func TestPerCoreVROverlappingGrants(t *testing.T) {
	cfg := testConfig()
	cfg.PerCoreVR = true
	cfg.VR = pdn.DefaultConfig(pdn.LDO)
	cfg.RequestedFrequency = 3.1 * units.GHz
	cases := []struct {
		gap        units.Duration
		grantAt    [2]units.Time
		freq       units.Hertz
		downshifts uint64
	}{
		{0, [2]units.Time{8735674, 7107354}, 3 * units.GHz, 2},
		{3 * units.Microsecond, [2]units.Time{8735674, 10107354}, 3 * units.GHz, 2},
		{8 * units.Microsecond, [2]units.Time{8735674, 9952341}, 2.6 * units.GHz, 1},
		{12 * units.Microsecond, [2]units.Time{8735674, 22941099}, 2.1 * units.GHz, 2},
	}
	want := [2]isa.Class{isa.Vec512Heavy, isa.Vec256Heavy}
	for _, tc := range cases {
		p, q, cores := newTestPMU(t, cfg, 2)
		for i, c := range cores {
			c.busy, c.active = true, want[i]
		}
		p.RequestLicense(0, want[0])
		q.RunUntil(q.Now().Add(tc.gap))
		p.RequestLicense(1, want[1])
		q.RunUntil(q.Now().Add(300 * units.Microsecond))
		for i, c := range cores {
			if len(c.granted) != 1 || c.granted[0] != want[i] || c.grantTimes[0] != tc.grantAt[i] {
				t.Errorf("gap %v: core %d granted %v at %v, want %v at %v",
					tc.gap, i, c.granted, c.grantTimes, want[i], tc.grantAt[i])
			}
		}
		st := p.Stats()
		if p.Frequency() != tc.freq || st.FreqDownshifts != tc.downshifts || st.SerializedWaits != 0 {
			t.Errorf("gap %v: frequency %v, stats %+v; want %v and %d downshifts, no waits",
				tc.gap, p.Frequency(), st, tc.freq, tc.downshifts)
		}
	}
}

// TestGrantQueuedBehindRestore: a grant that waits behind an in-flight
// frequency restore starts from the restore's relock continuation and
// immediately relocks again for its own protective downshift. The second
// relock must keep its continuation: the first one's completion may not
// clear it.
func TestGrantQueuedBehindRestore(t *testing.T) {
	cfg := testConfig()
	cfg.RequestedFrequency = 3.1 * units.GHz
	p, q, cores := newTestPMU(t, cfg, 2)
	cores[1].busy, cores[1].active = true, isa.Scalar64
	cores[0].busy, cores[0].active = true, isa.Vec512Heavy
	p.RequestLicense(0, isa.Vec512Heavy)
	q.RunUntil(q.Now().Add(300 * units.Microsecond))
	down := p.Frequency()
	cores[0].busy, cores[0].active = false, isa.Scalar64
	for !p.restoreQueued {
		if !q.Step() {
			t.Fatal("no frequency restore started")
		}
	}
	cores[0].busy, cores[0].active = true, isa.Vec512Heavy
	p.RequestLicense(0, isa.Vec512Heavy)
	q.RunUntil(q.Now().Add(300 * units.Microsecond))
	st := p.Stats()
	if st.FreqRestores != 1 || st.FreqDownshifts != 2 || st.Grants != 2 || st.SerializedWaits == 0 {
		t.Fatalf("stats %+v, want the grant queued behind one restore and two downshifts", st)
	}
	if p.Frequency() != down || p.Licenses()[0] != isa.Vec512Heavy {
		t.Fatalf("frequency %v license %v, want %v and %v", p.Frequency(), p.Licenses()[0], down, isa.Vec512Heavy)
	}
}
