// Package model provides calibrated processor profiles for the three parts
// the paper characterizes: Haswell (Core i7-4770K), Coffee Lake (Core
// i7-9700K), and Cannon Lake (Core i3-8121U). Calibration targets are the
// paper's measured numbers: guardband steps from Fig. 6 and Fig. 10,
// throttling periods from Fig. 8(a), electrical limits from Fig. 7, power
// gate wake latencies from Fig. 8(b,c), and the 650 µs reset-time from
// §4.1.2. The integration tests in internal/exp assert the
// paper-vs-model values per figure.
package model

import (
	"fmt"
	"sync"

	"ichannels/internal/isa"
	"ichannels/internal/pdn"
	"ichannels/internal/pmu"
	"ichannels/internal/power"
	"ichannels/internal/units"
)

// ThermalSpec parametrizes the two-stage junction-temperature model:
// a slow package/heatsink stage and a fast die stage (the latter gives the
// millisecond response thermal covert channels rely on).
type ThermalSpec struct {
	Ambient units.Celsius
	RPkg    float64 // package thermal resistance, °C per watt
	TauPkg  units.Duration
	RDie    float64 // die-stage thermal resistance, °C per watt
	TauDie  units.Duration
}

// Processor is a complete calibrated description of one simulated part.
type Processor struct {
	Name     string // marketing name, e.g. "Core i7-9700K"
	CodeName string // microarchitecture, e.g. "Coffee Lake"

	Cores   int
	SMTWays int // hardware threads per core

	BaseFreq units.Hertz // nominal (non-Turbo) frequency
	MaxTurbo units.Hertz // single-core maximum Turbo frequency
	TSCFreq  units.Hertz // invariant TSC rate

	VR  pdn.Config
	RLL units.Ohm

	Guardband pmu.GuardbandTable
	VF        power.VFCurve
	Limits    power.Limits
	Cdyn      power.CdynModel
	Leakage   power.LeakageModel
	Thermal   ThermalSpec

	AVX256Gate uarchGate
	AVX512Gate uarchGate

	LicenseHysteresis units.Duration
	FreqRestoreDelay  units.Duration
	PLLRelock         units.Duration
	FreqStep          units.Hertz
	ThrottleFactor    float64
	DeliverWidth      int
	HasAVX512         bool
}

// uarchGate mirrors uarch.PowerGateConfig without importing uarch (the soc
// layer converts); model stays a pure-data package.
type uarchGate struct {
	Present     bool
	WakeLatency units.Duration
	IdleTimeout units.Duration
}

// Gate constructs the tuple used to build a uarch.PowerGateConfig.
func (g uarchGate) Gate() (present bool, wake, idle units.Duration) {
	return g.Present, g.WakeLatency, g.IdleTimeout
}

// Validate cross-checks the profile.
func (p Processor) Validate() error {
	if p.Cores <= 0 {
		return fmt.Errorf("model: %s: no cores", p.Name)
	}
	if p.SMTWays != 1 && p.SMTWays != 2 {
		return fmt.Errorf("model: %s: SMTWays must be 1 or 2", p.Name)
	}
	if p.BaseFreq <= 0 || p.MaxTurbo < p.BaseFreq || p.TSCFreq <= 0 {
		return fmt.Errorf("model: %s: inconsistent frequencies", p.Name)
	}
	if err := p.VR.Validate(); err != nil {
		return fmt.Errorf("model: %s: %w", p.Name, err)
	}
	if err := p.Guardband.Validate(); err != nil {
		return fmt.Errorf("model: %s: %w", p.Name, err)
	}
	if err := p.VF.Validate(); err != nil {
		return fmt.Errorf("model: %s: %w", p.Name, err)
	}
	if err := p.Limits.Validate(); err != nil {
		return fmt.Errorf("model: %s: %w", p.Name, err)
	}
	if err := p.Cdyn.Validate(); err != nil {
		return fmt.Errorf("model: %s: %w", p.Name, err)
	}
	if p.LicenseHysteresis <= 0 {
		return fmt.Errorf("model: %s: license hysteresis must be positive", p.Name)
	}
	if p.ThrottleFactor <= 0 || p.ThrottleFactor > 1 {
		return fmt.Errorf("model: %s: throttle factor outside (0,1]", p.Name)
	}
	if p.DeliverWidth <= 0 {
		return fmt.Errorf("model: %s: deliver width must be positive", p.Name)
	}
	return nil
}

// mv builds a guardband vector from per-class mV/GHz values.
func mv(vals [isa.NumClasses]float64) [isa.NumClasses]units.Volt {
	var out [isa.NumClasses]units.Volt
	for i, v := range vals {
		out[i] = units.MV(v)
	}
	return out
}

// nf builds a Cdyn vector from per-class nanofarad values.
func nf(vals [isa.NumClasses]float64) [isa.NumClasses]float64 {
	var out [isa.NumClasses]float64
	for i, v := range vals {
		out[i] = v * 1e-9
	}
	return out
}

// CannonLake8121U models the Core i3-8121U: 2 cores / 4 threads, MBVR
// power delivery, AVX-512 capable, Iccmax 29 A, Vccmax 1.15 V, Tjmax
// 100 °C (paper §5.1, Fig. 7). This is the paper's primary
// characterization vehicle (it is the only evaluated part with both SMT
// and AVX-512).
func CannonLake8121U() Processor {
	vr := pdn.DefaultConfig(pdn.MBVR)
	return Processor{
		Name:     "Core i3-8121U",
		CodeName: "Cannon Lake",
		Cores:    2,
		SMTWays:  2,
		BaseFreq: 2.2 * units.GHz,
		MaxTurbo: 3.1 * units.GHz,
		TSCFreq:  2.2 * units.GHz,
		VR:       vr,
		RLL:      units.MilliOhm(1.8),
		Guardband: pmu.GuardbandTable{
			// mV per GHz, single-core power virus; calibrated so the
			// Fig. 10(a) sweep at 1.0–1.4 GHz lands on the paper's
			// 0–22 µs band with the L1–L5 level structure.
			PerClassPerGHz: mv([isa.NumClasses]float64{0, 1.0, 3.5, 6.0, 8.5, 10.5, 13.5}),
			// Two cores need ≈1.8× the single-core step (Fig. 10a).
			CoreWeights: []float64{1.0, 0.8},
		},
		VF:      power.VFCurve{V0: 0.5465, K1: 0.0312, K2: 0.04233},
		Limits:  power.Limits{IccMax: 29, VccMax: 1.15, TjMax: 100},
		Cdyn:    power.CdynModel{PerClass: nf([isa.NumClasses]float64{1.4, 1.8, 2.4, 3.1, 4.3, 5.3, 6.5}), Idle: 0.25e-9},
		Leakage: power.LeakageModel{IRef: 2.0, VRef: 0.82, TempCoeff: 0.008, TRef: 50},
		Thermal: ThermalSpec{Ambient: 40, RPkg: 0.45, TauPkg: 1500 * units.Millisecond, RDie: 0.30, TauDie: 15 * units.Millisecond},
		AVX256Gate: uarchGate{
			Present: true, WakeLatency: 12 * units.Nanosecond, IdleTimeout: 5 * units.Microsecond,
		},
		AVX512Gate: uarchGate{
			Present: true, WakeLatency: 14 * units.Nanosecond, IdleTimeout: 5 * units.Microsecond,
		},
		LicenseHysteresis: 650 * units.Microsecond,
		FreqRestoreDelay:  15 * units.Millisecond,
		PLLRelock:         7 * units.Microsecond,
		FreqStep:          100 * units.MHz,
		ThrottleFactor:    0.25,
		DeliverWidth:      4,
		HasAVX512:         true,
	}
}

// CoffeeLake9700K models the Core i7-9700K: 8 cores, no SMT, MBVR,
// Iccmax 100 A, Vccmax 1.27 V (paper Fig. 7(a)). The guardband is
// calibrated to Fig. 6(a): one core's AVX2 phase raises Vcc by ≈8 mV at
// 2 GHz and the second core adds ≈9 mV more.
func CoffeeLake9700K() Processor {
	vr := pdn.DefaultConfig(pdn.MBVR)
	vr.SlewUp = units.Volt(1300) // 1.3 mV/µs: Fig. 8(a) TP ≈ 12 µs at 3.6 GHz
	return Processor{
		Name:     "Core i7-9700K",
		CodeName: "Coffee Lake",
		Cores:    8,
		SMTWays:  1,
		BaseFreq: 3.6 * units.GHz,
		MaxTurbo: 4.9 * units.GHz,
		TSCFreq:  3.6 * units.GHz,
		VR:       vr,
		RLL:      units.MilliOhm(1.6),
		Guardband: pmu.GuardbandTable{
			PerClassPerGHz: mv([isa.NumClasses]float64{0, 0.5, 1.6, 2.8, 4.0, 5.0, 6.4}),
			CoreWeights:    []float64{1.0, 1.125, 1.0, 0.9, 0.85, 0.8, 0.8, 0.8},
		},
		VF:      power.VFCurve{V0: 0.6284, K1: 0.0573, K2: 0.0143},
		Limits:  power.Limits{IccMax: 100, VccMax: 1.27, TjMax: 100},
		Cdyn:    power.CdynModel{PerClass: nf([isa.NumClasses]float64{2.2, 2.6, 3.3, 4.2, 5.5, 6.6, 8.0}), Idle: 0.4e-9},
		Leakage: power.LeakageModel{IRef: 5.0, VRef: 1.0, TempCoeff: 0.008, TRef: 50},
		Thermal: ThermalSpec{Ambient: 35, RPkg: 0.25, TauPkg: 2500 * units.Millisecond, RDie: 0.10, TauDie: 20 * units.Millisecond},
		AVX256Gate: uarchGate{
			// Skylake-and-later AVX power gating; ≈8 ns first-iteration
			// delta in Fig. 8(b).
			Present: true, WakeLatency: 10 * units.Nanosecond, IdleTimeout: 5 * units.Microsecond,
		},
		AVX512Gate:        uarchGate{Present: false},
		LicenseHysteresis: 650 * units.Microsecond,
		FreqRestoreDelay:  15 * units.Millisecond,
		PLLRelock:         7 * units.Microsecond,
		FreqStep:          100 * units.MHz,
		ThrottleFactor:    0.25,
		DeliverWidth:      4,
		HasAVX512:         false,
	}
}

// Haswell4770K models the Core i7-4770K: 4 cores / 8 threads, FIVR power
// delivery (faster ramps → shorter TP, Fig. 8(a)), and crucially *no* AVX
// power gate (Fig. 8(c)): AVX power gating arrived with Skylake.
func Haswell4770K() Processor {
	return Processor{
		Name:     "Core i7-4770K",
		CodeName: "Haswell",
		Cores:    4,
		SMTWays:  2,
		BaseFreq: 3.5 * units.GHz,
		MaxTurbo: 3.9 * units.GHz,
		TSCFreq:  3.5 * units.GHz,
		VR:       pdn.DefaultConfig(pdn.FIVR),
		RLL:      units.MilliOhm(2.0),
		Guardband: pmu.GuardbandTable{
			PerClassPerGHz: mv([isa.NumClasses]float64{0, 0.7, 2.5, 4.2, 6.0, 7.4, 9.5}),
			CoreWeights:    []float64{1.0, 1.0, 0.9, 0.85},
		},
		VF:      power.VFCurve{V0: 0.60, K1: 0.05, K2: 0.012},
		Limits:  power.Limits{IccMax: 100, VccMax: 1.35, TjMax: 100},
		Cdyn:    power.CdynModel{PerClass: nf([isa.NumClasses]float64{2.0, 2.4, 3.0, 3.8, 5.0, 6.0, 7.2}), Idle: 0.4e-9},
		Leakage: power.LeakageModel{IRef: 4.0, VRef: 0.95, TempCoeff: 0.008, TRef: 50},
		Thermal: ThermalSpec{Ambient: 35, RPkg: 0.28, TauPkg: 2500 * units.Millisecond, RDie: 0.12, TauDie: 18 * units.Millisecond},
		// Haswell does not power-gate the AVX unit: every iteration of
		// Fig. 8(c) has the same latency.
		AVX256Gate:        uarchGate{Present: false},
		AVX512Gate:        uarchGate{Present: false},
		LicenseHysteresis: 650 * units.Microsecond,
		FreqRestoreDelay:  15 * units.Millisecond,
		PLLRelock:         7 * units.Microsecond,
		FreqStep:          100 * units.MHz,
		ThrottleFactor:    0.25,
		DeliverWidth:      4,
		HasAVX512:         false,
	}
}

// All returns the three characterized processors.
func All() []Processor {
	return []Processor{Haswell4770K(), CoffeeLake9700K(), CannonLake8121U()}
}

// registry lists every profile constructor (characterized parts plus
// the server extension), in definition order.
var registry = []func() Processor{Haswell4770K, CoffeeLake9700K, CannonLake8121U, XeonPlatinum8160}

// profileEntry is one name's index entry: the constructor ByName calls,
// and the profile SharedByName hands out.
type profileEntry struct {
	ctor   func() Processor
	shared *Processor
}

// byName indexes marketing and code names once; ByName still calls the
// constructor, so every caller keeps getting a fresh profile it may
// mutate freely (the scenario layer resolves names on every cell of a
// sweep — rebuilding all four profiles per lookup was a measurable slice
// of the per-cell cost).
var byName = sync.OnceValue(func() map[string]profileEntry {
	m := make(map[string]profileEntry, 2*len(registry))
	for _, ctor := range registry {
		p := ctor()
		e := profileEntry{ctor: ctor, shared: &p}
		m[p.Name] = e
		m[p.CodeName] = e
	}
	return m
})

// ByName looks a processor up by marketing or code name, including the
// server extension profile. The returned profile is freshly constructed
// (never shared), so callers may adjust it.
func ByName(name string) (Processor, error) {
	if e, ok := byName()[name]; ok {
		return e.ctor(), nil
	}
	return Processor{}, fmt.Errorf("model: unknown processor %q", name)
}

// SharedByName is ByName without the construction: every caller gets
// the same profile, built once per process, so it is read-only. It
// serves lookups that only read a profile (a name's code name, its
// topology); a caller that adjusts the profile takes its own from
// ByName.
func SharedByName(name string) (*Processor, error) {
	if e, ok := byName()[name]; ok {
		return e.shared, nil
	}
	return nil, fmt.Errorf("model: unknown processor %q", name)
}
