package pdn

import (
	"testing"
	"testing/quick"

	"ichannels/internal/units"
)

func testConfig() Config {
	return Config{
		Kind:       MBVR,
		SlewUp:     units.Volt(1000), // 1 mV/µs
		SlewDown:   units.Volt(2000),
		CmdLatency: units.Microsecond,
		VMin:       0.5,
		VMax:       1.5,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := testConfig()
	bad.SlewUp = 0
	if bad.Validate() == nil {
		t.Error("zero slew must fail")
	}
	bad = testConfig()
	bad.CmdLatency = -1
	if bad.Validate() == nil {
		t.Error("negative latency must fail")
	}
	bad = testConfig()
	bad.VMax = bad.VMin
	if bad.Validate() == nil {
		t.Error("empty voltage range must fail")
	}
}

func TestDefaultConfigsValid(t *testing.T) {
	for _, k := range []Kind{MBVR, FIVR, LDO} {
		cfg := DefaultConfig(k)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v default invalid: %v", k, err)
		}
		if cfg.Kind != k {
			t.Errorf("%v default has kind %v", k, cfg.Kind)
		}
	}
	// The mitigation story depends on LDO being much faster than MBVR.
	if DefaultConfig(LDO).SlewUp <= 10*DefaultConfig(MBVR).SlewUp {
		t.Error("LDO must slew at least 10× faster than MBVR")
	}
}

func TestKindString(t *testing.T) {
	if MBVR.String() != "MBVR" || FIVR.String() != "FIVR" || LDO.String() != "LDO" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind formatting")
	}
}

// newRegulator returns a regulator Reset to v0 under cfg.
func newRegulator(cfg Config, v0 units.Volt) (*Regulator, error) {
	r := new(Regulator)
	if err := r.Reset(cfg, v0); err != nil {
		return nil, err
	}
	return r, nil
}

func TestNewRegulatorBounds(t *testing.T) {
	if err := new(Regulator).Reset(testConfig(), 0.2); err == nil {
		t.Fatal("initial voltage below VMin accepted")
	}
	if err := new(Regulator).Reset(testConfig(), 2.0); err == nil {
		t.Fatal("initial voltage above VMax accepted")
	}
}

func TestRampTiming(t *testing.T) {
	r, err := newRegulator(testConfig(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// +10 mV at 1 mV/µs with 1 µs command latency → settle at t=11 µs.
	settle := r.SetTarget(0, 0.81)
	want := units.Time(11 * units.Microsecond)
	if settle != want {
		t.Fatalf("settle = %v, want %v", units.Duration(settle), units.Duration(want))
	}
	// During command latency the output holds.
	if got := r.Voltage(units.Time(500 * units.Nanosecond)); got != 0.8 {
		t.Fatalf("during latency: %v", got)
	}
	// Midway through the ramp: half the delta.
	mid := r.Voltage(units.Time(6 * units.Microsecond))
	if mid < 0.8049 || mid > 0.8051 {
		t.Fatalf("mid-ramp voltage = %v", mid)
	}
	if got := r.Voltage(settle); got != 0.81 {
		t.Fatalf("at settle: %v", got)
	}
	if !r.Settled(settle) || r.Settled(settle-1) {
		t.Fatal("Settled boundary wrong")
	}
}

func TestDownRampUsesDownSlew(t *testing.T) {
	r, _ := newRegulator(testConfig(), 0.9)
	// −20 mV at 2 mV/µs → 10 µs ramp + 1 µs latency.
	settle := r.SetTarget(0, 0.88)
	if settle != units.Time(11*units.Microsecond) {
		t.Fatalf("settle = %v", units.Duration(settle))
	}
}

func TestRetargetMidRampRebases(t *testing.T) {
	r, _ := newRegulator(testConfig(), 0.8)
	r.SetTarget(0, 0.82) // settles at 21 µs
	// Retarget at 11 µs: output is ~0.81 then.
	at := units.Time(11 * units.Microsecond)
	vNow := r.Voltage(at)
	settle := r.SetTarget(at, 0.83)
	// New ramp: (0.83−vNow)/1mV/µs + 1 µs latency.
	wantDur := units.FromSeconds(float64(0.83-vNow)/1000) + units.Microsecond
	if got := settle.Sub(at); got != wantDur {
		t.Fatalf("re-ramp duration %v, want %v", got, wantDur)
	}
	if r.Target() != 0.83 {
		t.Fatalf("target = %v", r.Target())
	}
}

func TestSetTargetClamps(t *testing.T) {
	r, _ := newRegulator(testConfig(), 0.8)
	r.SetTarget(0, 99)
	if r.Target() != 1.5 {
		t.Fatalf("clamped target = %v", r.Target())
	}
	r2, _ := newRegulator(testConfig(), 0.8)
	r2.SetTarget(0, 0)
	if r2.Target() != 0.5 {
		t.Fatalf("clamped target = %v", r2.Target())
	}
}

func TestZeroDeltaSettlesAfterLatency(t *testing.T) {
	r, _ := newRegulator(testConfig(), 0.8)
	settle := r.SetTarget(0, 0.8)
	if settle != units.Time(units.Microsecond) {
		t.Fatalf("zero-delta settle = %v", units.Duration(settle))
	}
}

func TestTransitionTimePlansWithoutCommanding(t *testing.T) {
	r, _ := newRegulator(testConfig(), 0.8)
	d := r.TransitionTime(0, 0.81)
	if d != 11*units.Microsecond {
		t.Fatalf("TransitionTime = %v", d)
	}
	if r.Target() != 0.8 {
		t.Fatal("TransitionTime must not change the target")
	}
}

// Property: during an up-ramp, voltage is nondecreasing in time and never
// exceeds the target.
func TestPropertyRampMonotone(t *testing.T) {
	f := func(deltaMV uint8, probe uint16) bool {
		r, _ := newRegulator(testConfig(), 0.8)
		target := 0.8 + units.Volt(float64(deltaMV)/1000)
		if target > 1.5 {
			target = 1.5
		}
		settle := r.SetTarget(0, target)
		t1 := units.Time(probe)
		t2 := t1.Add(units.Duration(probe))
		v1, v2 := r.Voltage(t1), r.Voltage(t2)
		return v1 <= v2+1e-12 && v2 <= target+1e-12 && r.Voltage(settle) == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadLine(t *testing.T) {
	ll, err := NewLoadLine(units.MilliOhm(2))
	if err != nil {
		t.Fatal(err)
	}
	// 50 A across 2 mΩ → 100 mV droop.
	if got := ll.Droop(50); got != 0.1 {
		t.Fatalf("droop = %v", got)
	}
	if got := ll.LoadVoltage(1.0, 50); got != 0.9 {
		t.Fatalf("load voltage = %v", got)
	}
	if got := ll.RequiredVcc(0.9, 50); got != 1.0 {
		t.Fatalf("required = %v", got)
	}
	if _, err := NewLoadLine(-1); err == nil {
		t.Fatal("negative RLL accepted")
	}
}

func TestLoadLineGuardbandEquation(t *testing.T) {
	// Paper Equation 1: ΔV = ΔCdyn · Vcc · F · RLL.
	ll, _ := NewLoadLine(units.MilliOhm(2))
	dv := ll.GuardbandFor(2e-9, 1.0, 2*units.GHz)
	// 2nF × 1V × 2GHz × 2mΩ = 8 mV.
	if dv < 0.0079 || dv > 0.0081 {
		t.Fatalf("ΔV = %v", dv)
	}
}

// Property: LoadVoltage and RequiredVcc are inverses.
func TestPropertyLoadLineInverse(t *testing.T) {
	f := func(iccRaw uint8) bool {
		ll, _ := NewLoadLine(units.MilliOhm(1.8))
		icc := units.Ampere(iccRaw)
		vmin := units.Volt(0.75)
		vcc := ll.RequiredVcc(vmin, icc)
		back := ll.LoadVoltage(vcc, icc)
		d := float64(back - vmin)
		return d < 1e-12 && d > -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
