// Package soc assembles the full simulated system-on-chip: cores, central
// PMU, power delivery, clocking, the invariant TSC, OS noise, and the
// software contexts (agents) that run on hardware threads. It is the
// integration point every experiment and covert channel builds on.
package soc

import (
	"fmt"
	"math/rand"

	"ichannels/internal/isa"
	"ichannels/internal/model"
	"ichannels/internal/pdn"
	"ichannels/internal/pmu"
	"ichannels/internal/power"
	"ichannels/internal/sched"
	"ichannels/internal/uarch"
	"ichannels/internal/units"
)

// Options configures a Machine beyond its processor profile.
type Options struct {
	// Processor is the calibrated part to simulate. Required.
	Processor model.Processor

	// RequestedFreq is the operating point software asks for (a fixed
	// frequency for the characterization experiments, or the Turbo
	// maximum). Zero means the processor's base frequency.
	RequestedFreq units.Hertz

	// Cores limits the number of instantiated cores (0 = all the
	// profile has). The paper's experiments mostly use one or two.
	Cores int

	// PerCoreVR enables mitigation 1 (per-core regulators). Combine
	// with VROverride to model an LDO.
	PerCoreVR bool

	// VROverride substitutes the regulator parameters (e.g. an LDO for
	// the mitigation study). Nil keeps the profile's VR.
	VROverride *pdn.Config

	// PerThreadThrottle enables mitigation 2 (improved core throttling).
	PerThreadThrottle bool

	// SecureMode enables mitigation 3 from time zero.
	SecureMode bool

	// Noise configures OS interrupt / context-switch injection.
	Noise NoiseConfig

	// TSCJitterCycles adds uniform [0, n) cycles of measurement noise to
	// every rdtsc an agent performs, modelling serialization overhead
	// and pipeline-state variation of the real instruction. Zero means
	// ideal reads.
	TSCJitterCycles int64

	// Seed drives all randomness (noise arrival, jitter). The same seed
	// replays the same simulation.
	Seed int64
}

// Machine is one fully wired simulated system.
type Machine struct {
	Q     *sched.Queue
	Proc  model.Processor
	Cores []*uarch.Core
	PMU   *pmu.PMU

	loadLine pdn.LoadLine
	thermal  *power.Thermal
	noise    *noiseInjector
	opts     Options

	// rng is constructed (or re-seeded after a Reset) lazily on first
	// draw: seeding math/rand costs more than an entire short simulation,
	// and machines without noise or TSC jitter never draw at all. The
	// draw sequence for a given seed is unchanged, so output bytes are
	// identical to an eagerly seeded machine.
	rng       *rand.Rand
	rngSeeded bool

	// threads holds the live (bound, not yet stopped) software threads in
	// bind order; a thread is removed the moment its agent stops, keeping
	// the bind-time duplicate-slot check and the noise injector's victim
	// scan O(live threads) rather than O(threads ever bound). retired
	// accumulates stopped threads until the next Reset recycles them.
	threads []*SWThread
	retired []*SWThread
	freeTh  []*SWThread

	lastPower units.Watt
	// actScratch is the reusable per-probe activity buffer; its values
	// are consumed before the probe returns, never retained.
	actScratch []uarch.ThreadActivity
}

// deriveShape validates opts and resolves the derived build parameters
// shared by New and Reset.
func deriveShape(opts Options) (ncores int, req units.Hertz, err error) {
	p := opts.Processor
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	ncores = opts.Cores
	if ncores == 0 {
		ncores = p.Cores
	}
	if ncores < 1 || ncores > p.Cores {
		return 0, 0, fmt.Errorf("soc: core count %d outside [1, %d]", ncores, p.Cores)
	}
	req = opts.RequestedFreq
	if req == 0 {
		req = p.BaseFreq
	}
	if req > p.MaxTurbo {
		return 0, 0, fmt.Errorf("soc: requested frequency %v above max Turbo %v", req, p.MaxTurbo)
	}
	return ncores, req, nil
}

// pmuConfig builds the PMU configuration for opts.
func pmuConfig(opts Options, req units.Hertz) pmu.Config {
	p := opts.Processor
	vr := p.VR
	if opts.VROverride != nil {
		vr = *opts.VROverride
	}
	return pmu.Config{
		Guardband:          p.Guardband,
		VF:                 p.VF,
		Limits:             p.Limits,
		Cdyn:               p.Cdyn,
		Leakage:            p.Leakage,
		LicenseHysteresis:  p.LicenseHysteresis,
		FreqRestoreDelay:   p.FreqRestoreDelay,
		FreqStep:           p.FreqStep,
		PLLRelock:          p.PLLRelock,
		RequestedFrequency: req,
		PerCoreVR:          opts.PerCoreVR,
		VR:                 vr,
	}
}

// coreConfig builds the configuration for core i under opts.
func coreConfig(opts Options, i int) uarch.Config {
	p := opts.Processor
	return uarch.Config{
		ID:                i,
		SMTWays:           p.SMTWays,
		DeliverWidth:      p.DeliverWidth,
		ThrottleFactor:    p.ThrottleFactor,
		PerThreadThrottle: opts.PerThreadThrottle,
		AVX256Gate:        gateConfig(p.AVX256Gate.Gate()),
		AVX512Gate:        gateConfig(p.AVX512Gate.Gate()),
	}
}

// New allocates a machine of opts' shape — event queue, PMU, cores — and
// initializes it with Reset. The returned machine is at simulated time
// zero with all cores idle and the PMU settled at the requested operating
// point.
func New(opts Options) (*Machine, error) {
	ncores, req, err := deriveShape(opts)
	if err != nil {
		return nil, err
	}
	q := sched.NewQueue()
	unit, err := pmu.New(pmuConfig(opts, req), q)
	if err != nil {
		return nil, err
	}
	m := &Machine{Q: q, Proc: opts.Processor, PMU: unit, Cores: make([]*uarch.Core, ncores)}
	pmuCores := make([]pmu.Core, ncores)
	for i := range m.Cores {
		core, err := uarch.NewCore(coreConfig(opts, i), q, unit)
		if err != nil {
			return nil, err
		}
		m.Cores[i] = core
		pmuCores[i] = core
	}
	if err := unit.AttachCores(pmuCores); err != nil {
		return nil, err
	}
	if err := m.Reset(opts); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset initializes the machine per opts — time zero, cores idle, PMU
// settled, counters cleared, randomness restarted from opts.Seed, the
// secure-mode guardband ramp run, the noise injector armed — reusing
// every long-lived structure: the event queue's node pool, the cores with
// their prebound callbacks, the PMU's per-core slices, the regulators, and
// retired SWThreads. It is the only code that sets a machine's state: New
// calls it, and a pooled machine calls it per run, so a reset machine
// replays byte-identically to a fresh one (soc's reset determinism test
// and the sweep conformance suites hold this line).
//
// The machine's shape must not change: same processor topology (core
// count, SMT ways) and same regulator topology (PerCoreVR). Pools key on
// shape, so Reset is only ever asked for compatible options; incompatible
// options return an error and the caller falls back to New.
func (m *Machine) Reset(opts Options) error {
	ncores, req, err := deriveShape(opts)
	if err != nil {
		return err
	}
	if ncores != len(m.Cores) || opts.Processor.SMTWays != m.Proc.SMTWays {
		return fmt.Errorf("soc: Reset cannot change core topology (%d cores × %d-way to %d × %d-way)",
			len(m.Cores), m.Proc.SMTWays, ncores, opts.Processor.SMTWays)
	}
	ll, err := pdn.NewLoadLine(opts.Processor.RLL)
	if err != nil {
		return err
	}
	th := opts.Processor.Thermal
	thermal, err := power.NewThermal(th.Ambient, th.RPkg, th.TauPkg, th.RDie, th.TauDie)
	if err != nil {
		return err
	}
	// From here on the machine mutates; a mid-way error leaves it in an
	// undefined state and the caller must discard it (pools do).
	m.Q.Reset()
	for i, c := range m.Cores {
		if err := c.Reset(coreConfig(opts, i)); err != nil {
			return err
		}
	}
	if err := m.PMU.Reset(pmuConfig(opts, req)); err != nil {
		return err
	}
	m.Proc = opts.Processor
	m.opts = opts
	m.loadLine = ll
	m.thermal = thermal
	m.rngSeeded = false
	m.lastPower = 0
	// Recycle every software thread object bound during the previous run.
	m.freeTh = append(m.freeTh, m.retired...)
	m.freeTh = append(m.freeTh, m.threads...)
	m.retired = m.retired[:0]
	m.threads = m.threads[:0]
	if opts.SecureMode {
		m.PMU.SetSecure(true)
		// Let the worst-case guardband ramp settle before time zero
		// workloads begin; secure mode is an operating mode, not a
		// transient (paper §7).
		m.Q.RunUntil(m.Q.Now().Add(200 * units.Microsecond))
	}
	m.noise = newNoiseInjector(m, opts.Noise)
	return nil
}

// gateConfig builds a power-gate configuration from a profile gate's
// Gate() tuple; a gate that is not present keeps zero timings.
func gateConfig(present bool, wake, idle units.Duration) uarch.PowerGateConfig {
	if !present {
		return uarch.PowerGateConfig{}
	}
	return uarch.PowerGateConfig{Present: true, WakeLatency: wake, IdleTimeout: idle}
}

// Now returns the current simulated time.
func (m *Machine) Now() units.Time { return m.Q.Now() }

// TSC returns the invariant timestamp counter value at time t.
func (m *Machine) TSC(t units.Time) int64 {
	return int64(t.Seconds() * float64(m.Proc.TSCFreq))
}

// ReadTSC models an agent actually executing rdtsc at time t: the true
// counter plus the configured measurement jitter.
func (m *Machine) ReadTSC(t units.Time) int64 {
	v := m.TSC(t)
	if m.opts.TSCJitterCycles > 0 {
		v += m.Rand().Int63n(m.opts.TSCJitterCycles)
	}
	return v
}

// CyclesOf converts a duration to TSC cycles.
func (m *Machine) CyclesOf(d units.Duration) int64 {
	return int64(d.Seconds() * float64(m.Proc.TSCFreq))
}

// RunFor advances the simulation by d.
func (m *Machine) RunFor(d units.Duration) {
	m.Q.RunUntil(m.Q.Now().Add(d))
}

// RunUntil advances the simulation to absolute time t.
func (m *Machine) RunUntil(t units.Time) { m.Q.RunUntil(t) }

// Rand exposes the machine's deterministic random source (used by agents
// that need jitter; seeded from Options.Seed). The source is seeded on
// first use — deterministically, so the draw sequence matches an eagerly
// seeded one — because seeding math/rand dominates machine construction
// for short runs that never draw.
func (m *Machine) Rand() *rand.Rand {
	if !m.rngSeeded {
		if m.rng == nil {
			m.rng = rand.New(rand.NewSource(m.opts.Seed))
		} else {
			m.rng.Seed(m.opts.Seed)
		}
		m.rngSeeded = true
	}
	return m.rng
}

// PowerState is an instantaneous electrical snapshot of the machine.
type PowerState struct {
	T       units.Time
	Vcc     units.Volt // regulator output (core 0's regulator)
	Vccload units.Volt // voltage at the cores after load-line droop
	Icc     units.Ampere
	Power   units.Watt
	Freq    units.Hertz
	Temp    units.Celsius
	// CoreIPC is the delivered uops/cycle of each core (sum over its
	// threads), the quantity the paper plots in Figs. 4 and 9.
	CoreIPC []float64
	// Throttled flags cores whose IDQ gate is engaged.
	Throttled []bool
	// Licenses is the per-core granted license.
	Licenses []isa.Class
}

// Probe computes the instantaneous electrical state and advances the
// thermal model to now. Experiments and the trace recorder call this at
// their sampling rate. The returned per-core slices are freshly
// allocated (the trace recorder retains whole samples); agents that
// poll per slot and need only scalars use ProbeScalars.
func (m *Machine) Probe() PowerState {
	ipc := make([]float64, len(m.Cores))
	st := m.probe(ipc)
	st.CoreIPC = ipc
	throttled := make([]bool, len(m.Cores))
	for i, c := range m.Cores {
		throttled[i] = c.Throttled()
	}
	st.Throttled = throttled
	st.Licenses = m.PMU.Licenses()
	return st
}

// ProbeScalars is Probe without the per-core slices (CoreIPC, Throttled,
// Licenses stay nil): the same electrical computation and thermal-model
// advance, but allocation-free — the form for agents that sample the
// machine every slot (e.g. the PowerT receiver polling temperature).
func (m *Machine) ProbeScalars() PowerState {
	return m.probe(nil)
}

// probe computes the scalar electrical state, accumulating per-core IPC
// into ipc when non-nil.
func (m *Machine) probe(ipc []float64) PowerState {
	now := m.Q.Now()
	vcc := m.PMU.Voltage(0, now)
	freq := m.PMU.Frequency()

	var cdyn float64
	for i, c := range m.Cores {
		busy := false
		m.actScratch = c.AppendActivity(m.actScratch[:0])
		for _, a := range m.actScratch {
			if !a.Busy {
				continue
			}
			busy = true
			cdyn += (m.Proc.Cdyn.PerClass[a.Class] - m.Proc.Cdyn.Idle) * a.CdynScale * a.RateFraction
			if ipc != nil {
				ipc[i] += a.RateFraction // relative to ~1 uop/cycle kernels
			}
		}
		if busy {
			cdyn += m.Proc.Cdyn.Idle
		} else {
			cdyn += m.Proc.Cdyn.Idle * 0.2 // clock-gated idle core
		}
	}
	// Advance thermals under the previously computed power, then refresh.
	temp := m.thermal.Advance(now, m.lastPower)
	icc := power.DynamicCurrent(cdyn, vcc, freq) + m.Proc.Leakage.Current(vcc, temp)
	watts := units.Watt(float64(vcc) * float64(icc))
	m.lastPower = watts

	return PowerState{
		T:       now,
		Vcc:     vcc,
		Vccload: m.loadLine.LoadVoltage(vcc, icc),
		Icc:     icc,
		Power:   watts,
		Freq:    freq,
		Temp:    temp,
	}
}

// Threads returns the live (bound, not yet stopped) software threads in
// bind order.
func (m *Machine) Threads() []*SWThread { return m.threads }
