package pmu

import (
	"fmt"
	"math"

	"ichannels/internal/isa"
	"ichannels/internal/pdn"
	"ichannels/internal/power"
	"ichannels/internal/sched"
	"ichannels/internal/units"
)

// Core is the PMU-facing view of a CPU core. *uarch.Core satisfies it.
type Core interface {
	ID() int
	Busy() bool
	ActiveClass() isa.Class
	GrantLicense(c isa.Class, now units.Time)
	DowngradeLicense(c isa.Class, now units.Time)
	SetFrequency(f units.Hertz, now units.Time)
	SetHalted(h bool, now units.Time)
	SetDutyCycle(d float64, now units.Time)
}

// Config describes the central PMU.
type Config struct {
	Guardband GuardbandTable
	VF        power.VFCurve
	Limits    power.Limits
	Cdyn      power.CdynModel
	Leakage   power.LeakageModel

	// LicenseHysteresis is the paper's reset-time (~650 µs): a license
	// (and its guardband voltage) is held for this long after the last
	// use of its class before decaying to the baseline.
	LicenseHysteresis units.Duration

	// FreqRestoreDelay is how long after a protective frequency
	// reduction the PMU waits before restoring a higher frequency.
	// Milliseconds on real parts — this slowness is what limits
	// TurboCC-style channels.
	FreqRestoreDelay units.Duration

	// FreqStep is the P-state granularity (bus-clock multiples).
	FreqStep units.Hertz

	// PLLRelock is how long all cores halt while the clock retargets.
	PLLRelock units.Duration

	// RequestedFrequency is the operating point software asked for; the
	// PMU caps it to whatever the electrical limits allow.
	RequestedFrequency units.Hertz

	// PerCoreVR gives every core its own regulator (mitigation 1):
	// transitions no longer serialize across cores and each core's
	// guardband covers only its own load.
	PerCoreVR bool

	// VR parametrizes the regulator(s).
	VR pdn.Config
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Guardband.Validate(); err != nil {
		return err
	}
	if err := c.VF.Validate(); err != nil {
		return err
	}
	if err := c.Limits.Validate(); err != nil {
		return err
	}
	if err := c.Cdyn.Validate(); err != nil {
		return err
	}
	if err := c.VR.Validate(); err != nil {
		return err
	}
	if c.LicenseHysteresis <= 0 {
		return fmt.Errorf("pmu: license hysteresis must be positive")
	}
	if c.FreqRestoreDelay < 0 || c.PLLRelock < 0 {
		return fmt.Errorf("pmu: negative frequency-transition latency")
	}
	if c.FreqStep <= 0 {
		return fmt.Errorf("pmu: frequency step must be positive")
	}
	if c.RequestedFrequency <= 0 {
		return fmt.Errorf("pmu: requested frequency must be positive")
	}
	return nil
}

type transKind int

const (
	transGrant transKind = iota
	transRetarget
	transFreqUp
	transFreqDown
)

type transition struct {
	kind   transKind
	core   int
	class  isa.Class
	toFreq units.Hertz
}

// inFlight is one regulator's in-flight transition record. At most one
// transition runs per regulator at a time (the serialization the paper's
// cross-core channel exploits), so the state its continuations need fits
// in one slot per regulator, and each continuation is a callback bound
// once by AttachCores: a license cycle schedules without allocating.
type inFlight struct {
	tr transition
	// tentative is a grant's license vector (one entry per core): the
	// granted licenses with the requested class raised in place.
	tentative []isa.Class
	// pllTo and pllCont are the PLL relock's target and continuation.
	// With per-core regulators two regulators can relock at once, so
	// they live here rather than on the PMU.
	pllTo   units.Hertz
	pllCont func(units.Time)

	// Prebound continuations.
	finish   func(units.Time) // a retarget settled
	grant    func(units.Time) // a grant's ramp settled
	ramp     func(units.Time) // a protective downshift relocked: ramp for the grant
	relax    func(units.Time) // a frequency-down relocked: relax the voltage
	relock   func(units.Time) // a frequency-up's voltage settled: relock
	restored func(units.Time) // a frequency-up relocked: the restore is done
	pll      func(units.Time) // the PLL relock completed
}

// Stats counts PMU activity, exposed for experiments and tests.
type Stats struct {
	Grants          uint64
	Downgrades      uint64
	FreqDownshifts  uint64
	FreqRestores    uint64
	Transitions     uint64
	SerializedWaits uint64 // transitions that had to queue behind another
}

const longAgo = units.Time(math.MinInt64 / 4)

// PMU is the central power management unit.
type PMU struct {
	cfg   Config
	q     *sched.Queue
	cores []Core
	regs  []*pdn.Regulator

	lic       []isa.Class
	lastTouch [][isa.NumClasses]units.Time
	decayEv   []sched.EventRef
	decayFn   []func(units.Time) // prebound per-core decay callbacks

	busy   []bool
	queue  [][]transition
	flight []inFlight

	restoreFn func(units.Time) // prebound restore-check callback

	curFreq       units.Hertz
	lastDownshift units.Time
	restoreEv     sched.EventRef
	restoreQueued bool

	secure bool

	stats Stats
}

// New creates a PMU. Cores must be attached with AttachCores before any
// license traffic.
func New(cfg Config, q *sched.Queue) (*PMU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if q == nil {
		return nil, fmt.Errorf("pmu: nil scheduler")
	}
	return &PMU{cfg: cfg, q: q}, nil
}

// AttachCores registers the cores the PMU manages, allocates the per-core
// and per-regulator state, and settles the unit with Reset.
func (p *PMU) AttachCores(cores []Core) error {
	if p.cores != nil {
		return fmt.Errorf("pmu: cores already attached")
	}
	if len(cores) == 0 {
		return fmt.Errorf("pmu: no cores")
	}
	p.cores = cores
	n := len(cores)
	p.lic = make([]isa.Class, n)
	p.lastTouch = make([][isa.NumClasses]units.Time, n)
	p.decayEv = make([]sched.EventRef, n)
	// The decay check reschedules itself on every license touch window;
	// binding the callback once per core keeps that hot path free of
	// per-schedule closure allocations.
	p.decayFn = make([]func(units.Time), n)
	for i := 0; i < n; i++ {
		coreID := i
		p.decayFn[i] = func(now units.Time) {
			p.decayEv[coreID] = sched.EventRef{}
			p.decayCheck(coreID, now)
		}
	}
	nregs := 1
	if p.cfg.PerCoreVR {
		nregs = n
	}
	p.busy = make([]bool, nregs)
	p.queue = make([][]transition, nregs)
	p.flight = make([]inFlight, nregs)
	for i := range p.flight {
		ri := i
		fl := &p.flight[ri]
		fl.tentative = make([]isa.Class, n)
		fl.finish = func(units.Time) { p.finish(ri) }
		fl.grant = func(now units.Time) { p.grant(ri, now) }
		fl.ramp = func(units.Time) { p.rampForGrant(ri) }
		fl.relax = func(now units.Time) { p.relax(ri, now) }
		fl.relock = func(now units.Time) { p.switchFrequency(ri, fl.pllTo, now, fl.restored) }
		fl.restored = func(units.Time) {
			p.stats.FreqRestores++
			p.restoreQueued = false
			p.finish(ri)
		}
		fl.pll = func(now units.Time) { p.pllDone(ri, now) }
	}
	p.restoreFn = func(now units.Time) {
		p.restoreEv = sched.EventRef{}
		p.maybeRestoreFrequency(now)
	}
	p.regs = make([]*pdn.Regulator, nregs)
	for i := range p.regs {
		p.regs[i] = new(pdn.Regulator)
	}
	return p.Reset(p.cfg)
}

// Reset settles the PMU at the requested operating point under a
// (possibly updated) configuration: scalar licenses with expired touch
// windows, empty transition queues, cleared counters, frequency capped by
// the electrical limits for an all-scalar machine, and regulators at the
// corresponding base voltage. It is the only code that sets that state —
// AttachCores ends with it, and a pooled machine calls it in place,
// reusing the cores, regulators and every internal slice. The regulator
// topology must not change (machine pools key on PerCoreVR), and the
// shared scheduler must have been reset first.
func (p *PMU) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if p.cores == nil {
		return fmt.Errorf("pmu: Reset before AttachCores")
	}
	if cfg.PerCoreVR != p.cfg.PerCoreVR {
		return fmt.Errorf("pmu: Reset cannot change regulator topology")
	}
	p.cfg = cfg
	p.secure = false
	p.stats = Stats{}
	p.restoreQueued = false
	p.restoreEv = sched.EventRef{}
	for i := range p.lic {
		p.lic[i] = isa.Scalar64
		p.decayEv[i] = sched.EventRef{}
		for c := range p.lastTouch[i] {
			p.lastTouch[i][c] = longAgo
		}
	}
	for i := range p.busy {
		p.busy[i] = false
		p.queue[i] = p.queue[i][:0]
		fl := &p.flight[i]
		fl.tr = transition{}
		for c := range fl.tentative {
			fl.tentative[c] = isa.Scalar64
		}
		fl.pllTo = 0
		fl.pllCont = nil
	}
	now := p.q.Now()
	f := p.maxFreqAllowed(p.lic)
	if f <= 0 {
		return fmt.Errorf("pmu: no frequency satisfies the electrical limits even for scalar code")
	}
	p.curFreq = f
	for _, c := range p.cores {
		c.SetFrequency(f, now)
	}
	v0 := p.cfg.VF.Voltage(f)
	for _, r := range p.regs {
		if err := r.Reset(p.cfg.VR, v0); err != nil {
			return err
		}
	}
	p.lastDownshift = longAgo
	return nil
}

// Stats returns a copy of the PMU activity counters.
func (p *PMU) Stats() Stats { return p.stats }

// Frequency returns the current core clock frequency.
func (p *PMU) Frequency() units.Hertz { return p.curFreq }

// Licenses returns a copy of the per-core granted licenses.
func (p *PMU) Licenses() []isa.Class {
	out := make([]isa.Class, len(p.lic))
	copy(out, p.lic)
	return out
}

// Voltage returns the instantaneous output of the regulator feeding core
// coreID (the shared regulator when PerCoreVR is off).
func (p *PMU) Voltage(coreID int, now units.Time) units.Volt {
	return p.regs[p.regIndex(coreID)].Voltage(now)
}

// TargetVoltage returns the voltage the regulator for coreID is settling
// toward.
func (p *PMU) TargetVoltage(coreID int) units.Volt {
	return p.regs[p.regIndex(coreID)].Target()
}

// Secure reports whether secure mode is active.
func (p *PMU) Secure() bool { return p.secure }

// RequestedFrequency returns the software-requested operating point.
func (p *PMU) RequestedFrequency() units.Hertz { return p.cfg.RequestedFrequency }

// SetRequestedFrequency changes the software-requested operating point at
// runtime — the hardware-visible effect of a governor or sysfs frequency
// write (the mechanism the DFScovert baseline modulates). Downward changes
// queue a protective-style downshift; upward changes go through the normal
// restore path (and still respect the electrical limits).
func (p *PMU) SetRequestedFrequency(f units.Hertz) {
	p.mustInit()
	if f <= 0 {
		panic(fmt.Sprintf("pmu: non-positive requested frequency %v", f))
	}
	p.cfg.RequestedFrequency = f
	if f < p.curFreq {
		p.enqueue(0, transition{kind: transFreqDown, toFreq: f})
		return
	}
	// Allow an immediate restore: a deliberate software request is not
	// subject to the protection hold-off.
	p.lastDownshift = longAgo
	p.maybeRestoreFrequency(p.q.Now())
}

// SetClockDuty programs the package-wide clock-modulation duty cycle — the
// hardware-visible effect of writing IA32_CLOCK_MODULATION (T-states). The
// front-end of every core delivers uops only in the on fraction d of cycles;
// d == 1 disables modulation. Unlike frequency changes this takes effect
// immediately: no PLL relock, no protective hold-off — which is exactly why
// duty cycling makes a faster covert-channel carrier than DVFS.
func (p *PMU) SetClockDuty(d float64) {
	p.mustInit()
	if d <= 0 || d > 1 {
		panic(fmt.Sprintf("pmu: clock duty %v outside (0,1]", d))
	}
	now := p.q.Now()
	for _, c := range p.cores {
		c.SetDutyCycle(d, now)
	}
}

// SetSecure enables or disables secure mode (mitigation 3): the voltage is
// pinned at the worst-case power-virus guardband so PHI execution never
// needs a transition, and license requests are granted instantly without
// throttling. Callers should allow the initial ramp to settle before
// relying on the no-throttle property.
func (p *PMU) SetSecure(on bool) {
	if on == p.secure {
		return
	}
	p.secure = on
	// Re-aim every regulator at the (new) target; in secure mode that is
	// the worst-case guardband, out of it the current licenses' level.
	for ri := range p.regs {
		p.enqueue(ri, transition{kind: transRetarget})
	}
}

// regIndex maps a core to its regulator.
func (p *PMU) regIndex(coreID int) int {
	if p.cfg.PerCoreVR {
		return coreID
	}
	return 0
}

// RequestLicense implements uarch.CurrentManager: a core needs its license
// raised to class c. The grant arrives via Core.GrantLicense when the
// backing voltage transition completes (immediately in secure mode).
func (p *PMU) RequestLicense(coreID int, c isa.Class) {
	p.mustInit()
	p.touch(coreID, c)
	if p.secure {
		// Voltage already pinned at worst case: nothing to ramp.
		p.stats.Grants++
		if c > p.lic[coreID] {
			p.lic[coreID] = c
		}
		p.cores[coreID].GrantLicense(c, p.q.Now())
		return
	}
	p.enqueue(p.regIndex(coreID), transition{kind: transGrant, core: coreID, class: c})
}

// TouchLicense implements uarch.CurrentManager: class c was used on the
// core, refreshing its reset-time window.
func (p *PMU) TouchLicense(coreID int, c isa.Class) {
	p.mustInit()
	p.touch(coreID, c)
}

func (p *PMU) mustInit() {
	if p.cores == nil {
		panic("pmu: used before AttachCores")
	}
}

func (p *PMU) touch(coreID int, c isa.Class) {
	if !c.PHI() {
		return
	}
	now := p.q.Now()
	p.lastTouch[coreID][c] = now
	if p.decayEv[coreID].Cancelled() {
		p.scheduleDecay(coreID, now.Add(p.cfg.LicenseHysteresis))
	}
}

func (p *PMU) scheduleDecay(coreID int, at units.Time) {
	p.decayEv[coreID] = p.q.At(at, p.decayFn[coreID])
}

// effectiveDemand returns the highest class the core is entitled to keep a
// license for: anything touched within the hysteresis window or actively
// executing right now.
func (p *PMU) effectiveDemand(coreID int, now units.Time) isa.Class {
	eff := p.cores[coreID].ActiveClass()
	horizon := now.Add(-units.Duration(p.cfg.LicenseHysteresis))
	for c := isa.NumClasses - 1; c > int(isa.Scalar64); c-- {
		if isa.Class(c) <= eff {
			break
		}
		if p.lastTouch[coreID][c] >= horizon {
			eff = isa.Class(c)
			break
		}
	}
	return eff
}

func (p *PMU) decayCheck(coreID int, now units.Time) {
	eff := p.effectiveDemand(coreID, now)
	if eff < p.lic[coreID] && !p.secure {
		p.lic[coreID] = eff
		p.stats.Downgrades++
		p.cores[coreID].DowngradeLicense(eff, now)
		p.enqueue(p.regIndex(coreID), transition{kind: transRetarget})
		p.maybeRestoreFrequency(now)
	}
	// Schedule the next check at the earliest future expiry, if any
	// class remains in its window or in active use.
	next := units.Time(math.MaxInt64)
	horizon := now.Add(-units.Duration(p.cfg.LicenseHysteresis))
	for c := int(isa.Scalar64) + 1; c < isa.NumClasses; c++ {
		if t := p.lastTouch[coreID][c]; t >= horizon {
			if e := t.Add(p.cfg.LicenseHysteresis); e < next {
				next = e
			}
		}
	}
	if p.cores[coreID].ActiveClass().PHI() {
		if e := now.Add(p.cfg.LicenseHysteresis); e < next {
			next = e
		}
	}
	if next < units.Time(math.MaxInt64) {
		if next <= now {
			next = now.Add(1)
		}
		p.scheduleDecay(coreID, next)
	}
}

// targetVoltage computes the voltage regulator ri should hold for the
// given per-core licenses at frequency f.
func (p *PMU) targetVoltage(ri int, licenses []isa.Class, f units.Hertz) units.Volt {
	base := p.cfg.VF.Voltage(f)
	if p.secure {
		n := len(p.cores)
		if p.cfg.PerCoreVR {
			n = 1
		}
		return base + p.cfg.Guardband.Max(n, f)
	}
	if p.cfg.PerCoreVR {
		return base + p.cfg.Guardband.Single(licenses[ri], f)
	}
	return base + p.cfg.Guardband.Sum(licenses, f)
}

// projectedIcc estimates worst-case supply current: every busy core drawing
// its licensed class's power-virus current, idle cores at idle Cdyn, plus
// leakage at a conservative temperature.
func (p *PMU) projectedIcc(licenses []isa.Class, v units.Volt, f units.Hertz) units.Ampere {
	var cdyn float64
	for i, c := range p.cores {
		if c.Busy() {
			cdyn += p.cfg.Cdyn.PerClass[licenses[i]]
		} else {
			cdyn += p.cfg.Cdyn.Idle
		}
	}
	icc := power.DynamicCurrent(cdyn, v, f)
	icc += p.cfg.Leakage.Current(v, 70)
	return icc
}

// maxFreqAllowed returns the highest frequency ≤ the requested operating
// point at which the given licenses fit both the Vccmax and Iccmax limits.
// Returns 0 if even the lowest step violates them.
func (p *PMU) maxFreqAllowed(licenses []isa.Class) units.Hertz {
	for f := p.cfg.RequestedFrequency; f >= p.cfg.FreqStep; f -= p.cfg.FreqStep {
		var v units.Volt
		if p.secure {
			v = p.cfg.VF.Voltage(f) + p.cfg.Guardband.Max(len(p.cores), f)
		} else {
			v = p.cfg.VF.Voltage(f) + p.cfg.Guardband.Sum(licenses, f)
		}
		if v > p.cfg.Limits.VccMax {
			continue
		}
		if p.projectedIcc(licenses, v, f) > p.cfg.Limits.IccMax {
			continue
		}
		return f
	}
	return 0
}

// enqueue adds a transition to regulator ri's serialized queue and kicks
// processing. This serialization — one voltage transition in flight per
// regulator, requests from other cores waiting behind it — is the
// mechanism behind Multi-Throttling-Cores (paper §4.3.1).
func (p *PMU) enqueue(ri int, tr transition) {
	if p.busy[ri] || len(p.queue[ri]) > 0 {
		p.stats.SerializedWaits++
	}
	p.queue[ri] = append(p.queue[ri], tr)
	p.kick(ri)
}

func (p *PMU) kick(ri int) {
	if p.busy[ri] || len(p.queue[ri]) == 0 {
		return
	}
	// Pop the head in place so enqueue's append reuses the capacity.
	q := p.queue[ri]
	p.flight[ri].tr = q[0]
	copy(q, q[1:])
	p.queue[ri] = q[:len(q)-1]
	p.busy[ri] = true
	p.stats.Transitions++
	p.process(ri)
}

func (p *PMU) finish(ri int) {
	p.busy[ri] = false
	p.maybeRestoreFrequency(p.q.Now())
	p.kick(ri)
}

// process starts regulator ri's in-flight transition. Every step it
// schedules is one of the regulator's prebound continuations, reading its
// state from the in-flight record.
func (p *PMU) process(ri int) {
	now := p.q.Now()
	fl := &p.flight[ri]
	tr := fl.tr
	switch tr.kind {
	case transGrant:
		copy(fl.tentative, p.lic)
		if tr.class > fl.tentative[tr.core] {
			fl.tentative[tr.core] = tr.class
		}
		fOK := p.maxFreqAllowed(fl.tentative)
		if fOK <= 0 {
			fOK = p.cfg.FreqStep
		}
		if fOK < p.curFreq {
			// Iccmax/Vccmax protection: reduce frequency before
			// raising the guardband (paper §5.3).
			p.downshiftThen(ri, fOK, fl.ramp)
			return
		}
		p.rampForGrant(ri)

	case transRetarget:
		target := p.targetVoltage(ri, p.lic, p.curFreq)
		settle := p.regs[ri].SetTarget(now, target)
		p.q.At(settle, fl.finish)

	case transFreqDown:
		if tr.toFreq >= p.curFreq {
			p.finish(ri)
			return
		}
		// Switch the clock first, then relax the voltage to the new
		// operating point.
		p.switchFrequency(ri, tr.toFreq, now, fl.relax)

	case transFreqUp:
		fOK := p.maxFreqAllowed(p.lic)
		to := tr.toFreq
		if to > fOK {
			to = fOK
		}
		if to <= p.curFreq {
			p.restoreQueued = false
			p.finish(ri)
			return
		}
		// Raise the voltage for the new frequency first, then relock
		// the PLL.
		target := p.targetVoltage(ri, p.lic, to)
		settle := p.regs[ri].SetTarget(now, target)
		fl.pllTo = to
		p.q.At(settle, fl.relock)
	}
}

// rampForGrant raises regulator ri's voltage for its in-flight grant.
func (p *PMU) rampForGrant(ri int) {
	now := p.q.Now()
	target := p.targetVoltage(ri, p.flight[ri].tentative, p.curFreq)
	settle := p.regs[ri].SetTarget(now, target)
	p.q.At(settle, p.flight[ri].grant)
}

// grant completes regulator ri's in-flight grant once its ramp settled.
func (p *PMU) grant(ri int, now units.Time) {
	tr := p.flight[ri].tr
	if tr.class > p.lic[tr.core] {
		p.lic[tr.core] = tr.class
	}
	p.stats.Grants++
	p.cores[tr.core].GrantLicense(tr.class, now)
	p.finish(ri)
}

// relax settles regulator ri's voltage at the operating point a
// frequency-down transition just relocked to.
func (p *PMU) relax(ri int, now units.Time) {
	target := p.targetVoltage(ri, p.lic, p.flight[ri].pllTo)
	settle := p.regs[ri].SetTarget(now, target)
	p.q.At(settle, p.flight[ri].finish)
}

// downshiftThen halts all cores, relocks the PLL at the lower frequency,
// resumes, and then continues with cont.
func (p *PMU) downshiftThen(ri int, to units.Hertz, cont func(units.Time)) {
	now := p.q.Now()
	p.stats.FreqDownshifts++
	p.lastDownshift = now
	p.switchFrequency(ri, to, now, cont)
	// Plan a restore check once the protection window has passed.
	p.scheduleRestoreCheck(now.Add(p.cfg.FreqRestoreDelay))
}

// switchFrequency performs the PLL relock for regulator ri's transition:
// all cores halt for PLLRelock, then run at the new frequency, and cont
// follows.
func (p *PMU) switchFrequency(ri int, to units.Hertz, now units.Time, cont func(units.Time)) {
	for _, c := range p.cores {
		c.SetHalted(true, now)
	}
	fl := &p.flight[ri]
	fl.pllTo, fl.pllCont = to, cont
	p.q.At(now.Add(p.cfg.PLLRelock), fl.pll)
}

// pllDone ends regulator ri's PLL relock. The continuation is taken
// off the record before it runs: it may finish the transition and start
// the next one, which can relock again.
func (p *PMU) pllDone(ri int, now units.Time) {
	fl := &p.flight[ri]
	to, cont := fl.pllTo, fl.pllCont
	fl.pllCont = nil
	p.curFreq = to
	for _, c := range p.cores {
		c.SetFrequency(to, now)
		c.SetHalted(false, now)
	}
	cont(now)
}

func (p *PMU) scheduleRestoreCheck(at units.Time) {
	if !p.restoreEv.Cancelled() && p.restoreEv.Time() <= at {
		return
	}
	p.q.Cancel(p.restoreEv)
	p.restoreEv = p.q.At(at, p.restoreFn)
}

// maybeRestoreFrequency queues a frequency-up transition when the
// protection window has elapsed and the current licenses allow a higher
// operating point again.
func (p *PMU) maybeRestoreFrequency(now units.Time) {
	if p.curFreq >= p.cfg.RequestedFrequency || p.restoreQueued {
		return
	}
	if now.Sub(p.lastDownshift) < p.cfg.FreqRestoreDelay {
		p.scheduleRestoreCheck(p.lastDownshift.Add(p.cfg.FreqRestoreDelay))
		return
	}
	fOK := p.maxFreqAllowed(p.lic)
	if fOK > p.curFreq {
		p.restoreQueued = true
		p.enqueue(0, transition{kind: transFreqUp, toFreq: fOK})
	}
}
