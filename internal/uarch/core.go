// Package uarch models the core microarchitecture features that current
// management interacts with: the 4-wide front-end (IDQ) to back-end uop
// delivery, the 1-of-4-cycle throttle gate that blocks delivery while the
// voltage ramps (paper §5.6, Fig. 11), SMT slot sharing (both threads of a
// core are throttled together), AVX power gates, and the two performance
// counters the paper's characterization relies on (CPU_CLK_UNHALTED and
// IDQ_UOPS_NOT_DELIVERED).
//
// Execution uses an analytic rate model: between state-change events a
// hardware thread retires uops at a constant rate determined by its
// kernel's base throughput, SMT sharing, throttle state, and the core
// clock. The core re-prices all threads whenever any of those inputs
// change, so timing is exact to the event resolution with no per-cycle
// stepping.
package uarch

import (
	"fmt"

	"ichannels/internal/isa"
	"ichannels/internal/sched"
	"ichannels/internal/units"
)

// CurrentManager is what a core needs from the power management unit. The
// PMU answers license requests asynchronously by calling GrantLicense on
// the core.
type CurrentManager interface {
	// RequestLicense asks for the core's license to be raised to at
	// least class c. The core throttles itself until the grant arrives.
	RequestLicense(coreID int, c isa.Class)
	// TouchLicense informs the PMU that class c is being actively used
	// on the core, refreshing the license decay (reset-time) timer.
	TouchLicense(coreID int, c isa.Class)
}

// Config describes one simulated core.
type Config struct {
	ID      int
	SMTWays int // 1 (no SMT) or 2

	// DeliverWidth is the front-end delivery width in uops/cycle.
	DeliverWidth int

	// ThrottleFactor is the fraction of uop-delivery cycles that survive
	// the throttle gate (1 of 4 → 0.25, paper Fig. 11(b)).
	ThrottleFactor float64

	// PerThreadThrottle enables the paper's "Improved Core Throttling"
	// mitigation (§7): only the thread that executes the PHI has its
	// uops blocked; the SMT sibling runs unimpeded.
	PerThreadThrottle bool

	// ThrottleOnset is the delay between detecting a PHI needing a
	// higher license and the throttle engaging (nanoseconds; the paper
	// notes throttling starts within a few ns).
	ThrottleOnset units.Duration

	// AVX256Gate and AVX512Gate describe the vector-unit power gates.
	AVX256Gate PowerGateConfig
	AVX512Gate PowerGateConfig

	// BaselineUndelivered is the background fraction of delivery slots
	// unused in unthrottled execution (small; Fig. 11(a) shows ≈0).
	BaselineUndelivered float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SMTWays != 1 && c.SMTWays != 2 {
		return fmt.Errorf("uarch: core %d: SMTWays must be 1 or 2, got %d", c.ID, c.SMTWays)
	}
	if c.DeliverWidth <= 0 {
		return fmt.Errorf("uarch: core %d: DeliverWidth must be positive", c.ID)
	}
	if c.ThrottleFactor <= 0 || c.ThrottleFactor > 1 {
		return fmt.Errorf("uarch: core %d: ThrottleFactor %g outside (0,1]", c.ID, c.ThrottleFactor)
	}
	if c.ThrottleOnset < 0 {
		return fmt.Errorf("uarch: core %d: negative throttle onset", c.ID)
	}
	if c.BaselineUndelivered < 0 || c.BaselineUndelivered >= 1 {
		return fmt.Errorf("uarch: core %d: BaselineUndelivered %g outside [0,1)", c.ID, c.BaselineUndelivered)
	}
	if err := c.AVX256Gate.Validate(); err != nil {
		return err
	}
	return c.AVX512Gate.Validate()
}

// threadState is the lifecycle state of a hardware thread.
type threadState int

const (
	tsIdle threadState = iota
	tsWaking
	tsRunning
	tsSpinning
)

func (s threadState) String() string {
	switch s {
	case tsIdle:
		return "idle"
	case tsWaking:
		return "waking"
	case tsRunning:
		return "running"
	case tsSpinning:
		return "spinning"
	default:
		return fmt.Sprintf("threadState(%d)", int(s))
	}
}

// Counters is a snapshot of the per-thread performance counters.
type Counters struct {
	// UnhaltedCycles mirrors CPU_CLK_UNHALTED: core clock cycles while
	// the core was not halted.
	UnhaltedCycles float64
	// UndeliveredSlots mirrors IDQ_UOPS_NOT_DELIVERED: delivery slots in
	// which the IDQ delivered no uop with the back-end not stalled.
	UndeliveredSlots float64
	// RetiredUops counts uops retired by this thread.
	RetiredUops float64
}

// Sub returns c - o, the counter deltas over an interval.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		UnhaltedCycles:   c.UnhaltedCycles - o.UnhaltedCycles,
		UndeliveredSlots: c.UndeliveredSlots - o.UndeliveredSlots,
		RetiredUops:      c.RetiredUops - o.RetiredUops,
	}
}

// UndeliveredFraction is the paper's normalized metric:
// IDQ_UOPS_NOT_DELIVERED / (width · CPU_CLK_UNHALTED).
func (c Counters) UndeliveredFraction(width int) float64 {
	if c.UnhaltedCycles <= 0 {
		return 0
	}
	return c.UndeliveredSlots / (float64(width) * c.UnhaltedCycles)
}

// hwThread is one SMT hardware context of a core.
type hwThread struct {
	core *Core
	slot int

	state     threadState
	kernel    isa.Kernel
	remUops   float64
	spinEnd   units.Time
	preempted int // preemption nesting depth (OS noise)
	onDone    func(units.Time)

	rate       float64 // uops per second under current conditions
	lastAccrue units.Time
	completion sched.EventRef
	wakeEv     sched.EventRef

	// Prebound event callbacks. The agent transition loop schedules
	// completion/spin/wake/resume events on every slot of every
	// transaction; binding these once per thread keeps the per-event cost
	// to the sched.Event allocation alone.
	completionFn func(units.Time)
	spinEndFn    func(units.Time)
	wakeFn       func(units.Time)
	resumeFn     func(units.Time)
	setRunning   func()
	setSpinning  func()
	incPreempt   func()
	decPreempt   func()

	ctr Counters
}

// Core is one simulated physical core.
type Core struct {
	cfg Config
	q   *sched.Queue
	cm  CurrentManager

	freq   units.Hertz
	halted bool
	// duty is the clock-modulation duty cycle in (0,1]: the fraction of
	// cycles in which the front-end delivers uops (IA32_CLOCK_MODULATION
	// T-states). 1 means unmodulated; the arithmetic below special-cases
	// that value so an unmodulated core accrues bit-identically to a core
	// built before duty cycling existed.
	duty float64

	throttled     bool
	throttleSince units.Time
	throttleTotal units.Duration
	requester     int // slot that triggered the pending license request

	license isa.Class
	pending isa.Class // requested-but-not-granted class; isa.Scalar64-1 if none

	threads []*hwThread
	avx256  *PowerGate
	avx512  *PowerGate
}

const noPending = isa.Class(-1)

// NewCore creates a core. The frequency must be set (by the PMU / clock
// domain) before any work runs.
func NewCore(cfg Config, q *sched.Queue, cm CurrentManager) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if q == nil || cm == nil {
		return nil, fmt.Errorf("uarch: core %d: nil queue or current manager", cfg.ID)
	}
	c := &Core{
		cfg:     cfg,
		q:       q,
		cm:      cm,
		duty:    1,
		license: isa.Scalar64,
		pending: noPending,
	}
	var err error
	c.avx256, err = NewPowerGate(cfg.AVX256Gate, q, func() bool {
		return c.ActiveClass().AVX()
	})
	if err != nil {
		return nil, err
	}
	c.avx512, err = NewPowerGate(cfg.AVX512Gate, q, func() bool {
		return c.ActiveClass().AVX512()
	})
	if err != nil {
		return nil, err
	}
	c.threads = make([]*hwThread, cfg.SMTWays)
	for i := range c.threads {
		t := &hwThread{core: c, slot: i, state: tsIdle}
		t.completionFn = t.onCompletion
		t.spinEndFn = t.onSpinEnd
		t.wakeFn = t.onWake
		t.resumeFn = t.onResume
		t.setRunning = func() { t.state = tsRunning }
		t.setSpinning = func() { t.state = tsSpinning }
		t.incPreempt = func() { t.preempted++ }
		t.decPreempt = func() {
			if t.preempted > 0 {
				t.preempted--
			}
		}
		c.threads[i] = t
	}
	return c, nil
}

// ID returns the core's identifier.
func (c *Core) ID() int { return c.cfg.ID }

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Frequency returns the current core clock frequency.
func (c *Core) Frequency() units.Hertz { return c.freq }

// SetFrequency changes the core clock (called by the PMU's clock domain).
func (c *Core) SetFrequency(f units.Hertz, now units.Time) {
	if f <= 0 {
		panic(fmt.Sprintf("uarch: core %d: non-positive frequency %v", c.cfg.ID, f))
	}
	if f == c.freq {
		return
	}
	c.repriceAll(now, func() { c.freq = f })
}

// Halted reports whether the core clock is stopped (P-state transition).
func (c *Core) Halted() bool { return c.halted }

// SetHalted stops or restarts the core clock.
func (c *Core) SetHalted(h bool, now units.Time) {
	if h == c.halted {
		return
	}
	c.repriceAll(now, func() { c.halted = h })
}

// DutyCycle returns the clock-modulation duty cycle (1 when unmodulated).
func (c *Core) DutyCycle() float64 { return c.duty }

// SetDutyCycle sets the clock-modulation duty cycle (called by the PMU when
// software programs IA32_CLOCK_MODULATION). d must be in (0,1]; d == 1
// restores full delivery.
func (c *Core) SetDutyCycle(d float64, now units.Time) {
	if d <= 0 || d > 1 {
		panic(fmt.Sprintf("uarch: core %d: duty cycle %v outside (0,1]", c.cfg.ID, d))
	}
	if d == c.duty {
		return
	}
	c.repriceAll(now, func() { c.duty = d })
}

// Throttled reports whether the IDQ throttle gate is engaged.
func (c *Core) Throttled() bool { return c.throttled }

// ThrottleTime returns the cumulative time the core has spent throttled.
func (c *Core) ThrottleTime(now units.Time) units.Duration {
	t := c.throttleTotal
	if c.throttled {
		t += now.Sub(c.throttleSince)
	}
	return t
}

// License returns the currently granted license class.
func (c *Core) License() isa.Class { return c.license }

// GrantLicense is called by the PMU when the voltage transition backing a
// license request completes. It lifts the throttle if no higher request is
// still outstanding.
func (c *Core) GrantLicense(class isa.Class, now units.Time) {
	c.repriceAll(now, func() {
		if class > c.license {
			c.license = class
		}
		if c.pending != noPending && c.pending <= c.license {
			c.pending = noPending
			c.setThrottle(false, now)
		}
	})
}

// DowngradeLicense is called by the PMU when the license decays after the
// hysteresis (reset-time) expires.
func (c *Core) DowngradeLicense(class isa.Class, now units.Time) {
	c.repriceAll(now, func() {
		c.license = class
		// A pending request above the new license keeps the core
		// throttled; nothing else changes.
	})
}

func (c *Core) setThrottle(on bool, now units.Time) {
	if on == c.throttled {
		return
	}
	c.throttled = on
	if on {
		c.throttleSince = now
	} else {
		c.throttleTotal += now.Sub(c.throttleSince)
	}
}

// ActiveClass returns the highest instruction class currently being
// executed (or waking toward execution) on any thread of the core. The PMU
// consults this when deciding whether a license may decay.
func (c *Core) ActiveClass() isa.Class {
	cls := isa.Scalar64
	for _, t := range c.threads {
		if (t.state == tsRunning || t.state == tsWaking) && t.kernel.Class > cls {
			cls = t.kernel.Class
		}
	}
	return cls
}

// Busy reports whether any hardware thread is occupying the pipeline.
func (c *Core) Busy() bool { return c.BusyThreads() > 0 }

// BusyThreads returns the number of threads currently occupying pipeline
// resources (running, spinning, or waking).
func (c *Core) BusyThreads() int {
	n := 0
	for _, t := range c.threads {
		if t.state != tsIdle {
			n++
		}
	}
	return n
}

// Counters returns a snapshot of the performance counters of a thread,
// accrued up to now.
func (c *Core) Counters(slot int, now units.Time) Counters {
	t := c.thread(slot)
	t.accrue(now)
	return t.ctr
}

// AVX256Wakes returns how many times the AVX256 power gate has opened.
func (c *Core) AVX256Wakes() uint64 { return c.avx256.Wakes }

// AVX512Wakes returns how many times the AVX512 power gate has opened.
func (c *Core) AVX512Wakes() uint64 { return c.avx512.Wakes }

// ThreadActivity describes what one hardware thread is doing, for the
// electrical model.
type ThreadActivity struct {
	Busy      bool
	Class     isa.Class
	CdynScale float64
	// RateFraction is the delivered-uop rate relative to the kernel's
	// unthrottled single-thread rate (0..1); throttled or SMT-sharing
	// execution draws proportionally less dynamic current.
	RateFraction float64
}

// Activity returns the current activity of every hardware thread.
func (c *Core) Activity() []ThreadActivity {
	return c.AppendActivity(nil)
}

// AppendActivity appends the current activity of every hardware thread
// to dst and returns the extended slice — the allocation-free form for
// callers that sample at high rate and consume the values immediately
// (the electrical probe reuses one scratch buffer per machine).
func (c *Core) AppendActivity(dst []ThreadActivity) []ThreadActivity {
	base := len(dst)
	for range c.threads {
		dst = append(dst, ThreadActivity{})
	}
	out := dst[base:]
	for i, t := range c.threads {
		switch t.state {
		case tsRunning:
			frac := 0.0
			if base := t.kernel.BaseUPC * float64(c.freq); base > 0 {
				frac = t.rate / base
			}
			out[i] = ThreadActivity{Busy: true, Class: t.kernel.Class, CdynScale: t.kernel.CdynScale, RateFraction: frac}
		case tsSpinning:
			// A spin loop is scalar work at moderate activity.
			out[i] = ThreadActivity{Busy: true, Class: isa.Scalar64, CdynScale: 0.4, RateFraction: 1}
		case tsWaking:
			out[i] = ThreadActivity{Busy: true, Class: t.kernel.Class, CdynScale: t.kernel.CdynScale, RateFraction: 0}
		default:
			out[i] = ThreadActivity{}
		}
	}
	return dst
}

func (c *Core) thread(slot int) *hwThread {
	if slot < 0 || slot >= len(c.threads) {
		panic(fmt.Sprintf("uarch: core %d has no thread slot %d", c.cfg.ID, slot))
	}
	return c.threads[slot]
}

// Start begins executing iters iterations of kernel k on the given
// hardware thread slot. onDone fires when the last iteration retires.
// The thread must be idle.
func (c *Core) Start(slot int, k isa.Kernel, iters int64, onDone func(units.Time)) {
	if err := k.Validate(); err != nil {
		panic(fmt.Sprintf("uarch: core %d: %v", c.cfg.ID, err))
	}
	if iters <= 0 {
		panic(fmt.Sprintf("uarch: core %d: non-positive iteration count %d", c.cfg.ID, iters))
	}
	if c.freq <= 0 {
		panic(fmt.Sprintf("uarch: core %d: Start before frequency was set", c.cfg.ID))
	}
	t := c.thread(slot)
	if t.state != tsIdle {
		panic(fmt.Sprintf("uarch: core %d slot %d: Start while %v", c.cfg.ID, slot, t.state))
	}
	now := c.q.Now()

	// Power-gate wake: first AVX use after idle pays the staggered wake
	// latency before any uop executes (paper §5.4, Fig. 8(b)).
	var wake units.Duration
	if k.Class.AVX512() {
		wake = maxDuration(c.avx256.Use(now), c.avx512.Use(now))
	} else if k.Class.AVX() {
		wake = c.avx256.Use(now)
	}

	// Occupy the slot before any PMU traffic so the PMU's current
	// projections see this core as busy when it evaluates the request.
	t.kernel = k
	t.remUops = float64(iters) * float64(k.UopsPerIter)
	t.onDone = onDone
	t.lastAccrue = now
	if wake > 0 {
		t.state = tsWaking
		t.wakeEv = c.q.After(wake, t.wakeFn)
		c.repriceAll(now, nil) // waking occupies the slot: reprice siblings
	} else {
		c.repriceAll(now, t.setRunning)
	}

	// License handling: executing a class above the granted license
	// requests an upgrade and throttles the whole core until the PMU's
	// voltage transition completes (di/dt avoidance, paper §4.1.1).
	c.cm.TouchLicense(c.cfg.ID, k.Class)
	needRequest := k.Class > c.license && (c.pending == noPending || k.Class > c.pending)
	if needRequest {
		c.repriceAll(now, func() {
			c.pending = k.Class
			c.requester = slot
			c.setThrottle(true, now)
		})
		c.cm.RequestLicense(c.cfg.ID, k.Class)
	}
}

// Spin busy-waits the thread (an rdtsc polling loop) until the absolute
// time `until`, then fires onDone. Spinning occupies pipeline resources
// (it shares the front-end with the SMT sibling) but retires no tracked
// uops.
func (c *Core) Spin(slot int, until units.Time, onDone func(units.Time)) {
	t := c.thread(slot)
	if t.state != tsIdle {
		panic(fmt.Sprintf("uarch: core %d slot %d: Spin while %v", c.cfg.ID, slot, t.state))
	}
	now := c.q.Now()
	if until < now {
		until = now
	}
	t.kernel = isa.Kernel{}
	t.onDone = onDone
	t.spinEnd = until
	t.lastAccrue = now
	c.repriceAll(now, t.setSpinning)
	t.completion = c.q.At(until, t.spinEndFn)
}

// Preempt simulates OS noise (an interrupt or context switch) landing on a
// hardware thread: for dur, the thread's own work makes no progress while
// the slot stays occupied (the OS handler runs scalar code in its place).
// Preemptions nest.
func (c *Core) Preempt(slot int, dur units.Duration) {
	t := c.thread(slot)
	now := c.q.Now()
	c.repriceAll(now, t.incPreempt)
	c.q.After(dur, t.resumeFn)
}

// finishThread retires the thread's current work and invokes its callback.
func (c *Core) finishThread(t *hwThread, now units.Time) {
	t.accrue(now)
	done := t.onDone
	t.onDone = nil
	wasClass := t.kernel.Class
	c.repriceAll(now, func() {
		t.state = tsIdle
		t.rate = 0
	})
	// Keep the power-gate idle timers honest about last use.
	if wasClass.AVX() {
		c.avx256.Touch(now)
	}
	if wasClass.AVX512() {
		c.avx512.Touch(now)
	}
	c.cm.TouchLicense(c.cfg.ID, wasClass)
	if done != nil {
		done(now)
	}
}

// repriceAll accrues progress for every thread up to now, applies the
// state mutation, then recomputes rates and completion events. Passing a
// nil mutation just re-prices.
func (c *Core) repriceAll(now units.Time, mutate func()) {
	for _, t := range c.threads {
		t.accrue(now)
	}
	if mutate != nil {
		mutate()
	}
	for _, t := range c.threads {
		t.reprice(now)
	}
}

// throttleApplies reports whether the throttle gate blocks this thread's
// uop delivery. With per-thread throttling (mitigation 2), only the
// requesting thread's PHI uops are blocked.
func (c *Core) throttleApplies(t *hwThread) bool {
	if !c.throttled {
		return false
	}
	if !c.cfg.PerThreadThrottle {
		return true
	}
	return t.slot == c.requester
}

// accrue advances a thread's retired-uop progress and counters from its
// last accrual point to now under the rate that has been in effect.
func (t *hwThread) accrue(now units.Time) {
	if now <= t.lastAccrue {
		return
	}
	dt := now.Sub(t.lastAccrue).Seconds()
	t.lastAccrue = now
	c := t.core
	if t.state == tsIdle {
		return
	}
	if !c.halted {
		cycles := float64(c.freq) * dt
		t.ctr.UnhaltedCycles += cycles
		width := float64(c.cfg.DeliverWidth)
		switch {
		case t.state == tsWaking:
			// Waiting on the power gate: nothing delivered.
			t.ctr.UndeliveredSlots += width * cycles
		case c.throttleApplies(t):
			// The IDQ delivers only 1 cycle in 4; in the blocked
			// cycles all slots go undelivered (paper Fig. 11(b)).
			blocked := 1 - c.cfg.ThrottleFactor
			t.ctr.UndeliveredSlots += width * cycles * blocked
		default:
			t.ctr.UndeliveredSlots += width * cycles * c.cfg.BaselineUndelivered
		}
		if c.duty < 1 {
			// Clock modulation gates the front-end in the off fraction
			// regardless of the thread's delivery state above.
			t.ctr.UndeliveredSlots += width * cycles * (1 - c.duty)
		}
	}
	if t.state == tsRunning && t.rate > 0 {
		adv := t.rate * dt
		if adv > t.remUops {
			adv = t.remUops
		}
		t.remUops -= adv
		t.ctr.RetiredUops += adv
	}
}

// reprice recomputes the thread's uop rate from current core state and
// reschedules its completion event.
func (t *hwThread) reprice(now units.Time) {
	c := t.core
	if t.state != tsRunning {
		// Spin completion is a fixed-time event; nothing to reprice.
		return
	}
	rate := t.kernel.BaseUPC * float64(c.freq)
	if c.BusyThreads() > 1 {
		// SMT threads share the front-end delivery bandwidth.
		rate *= 0.5
	}
	if c.throttleApplies(t) {
		rate *= c.cfg.ThrottleFactor
	}
	if c.duty != 1 {
		rate *= c.duty
	}
	if c.halted || t.preempted > 0 {
		rate = 0
	}
	t.rate = rate

	c.q.Cancel(t.completion)
	t.completion = sched.EventRef{}
	if t.remUops <= 1e-9 {
		// Finished exactly at a boundary: complete now.
		t.completion = c.q.At(now, t.completionFn)
		return
	}
	if rate <= 0 {
		return // stalled; a future state change will reprice again
	}
	secs := t.remUops / rate
	doneAt := now.Add(units.FromSeconds(secs))
	if doneAt == now {
		doneAt = now.Add(1) // guarantee forward progress at ps resolution
	}
	t.completion = c.q.At(doneAt, t.completionFn)
}

// onCompletion handles a completion event (prebound per thread): accrue
// progress, reprice if a mid-flight state change outdated the event, and
// finish otherwise. An exactly-at-boundary completion (remUops already
// zero) accrues nothing and falls straight through to finishThread.
func (t *hwThread) onCompletion(tm units.Time) {
	t.completion = sched.EventRef{}
	t.accrue(tm)
	if t.remUops > 1e-6 {
		t.reprice(tm)
		if !t.completion.Cancelled() {
			return
		}
	}
	t.core.finishThread(t, tm)
}

// onSpinEnd handles a spin deadline (prebound per thread).
func (t *hwThread) onSpinEnd(tm units.Time) {
	t.completion = sched.EventRef{}
	t.core.finishThread(t, tm)
}

// onWake handles a power-gate wake completing (prebound per thread).
func (t *hwThread) onWake(tm units.Time) {
	t.wakeEv = sched.EventRef{}
	t.core.repriceAll(tm, t.setRunning)
}

// onResume handles an OS-noise preemption ending (prebound per thread).
func (t *hwThread) onResume(tm units.Time) {
	t.core.repriceAll(tm, t.decPreempt)
}

// Reset returns the core to its just-constructed state so a pooled
// machine can rerun from simulated time zero. The new configuration must
// keep the core's identity and SMT topology (machine pools key on shape);
// behavioural knobs (throttle policy, gate timings) may change. The caller
// must have reset the shared scheduler first — no events of the previous
// run may still be pending.
func (c *Core) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.ID != c.cfg.ID || cfg.SMTWays != c.cfg.SMTWays {
		return fmt.Errorf("uarch: core %d: Reset cannot change identity or topology (to core %d, %d-way)",
			c.cfg.ID, cfg.ID, cfg.SMTWays)
	}
	c.cfg = cfg
	c.freq = 0
	c.halted = false
	c.duty = 1
	c.throttled = false
	c.throttleSince = 0
	c.throttleTotal = 0
	c.requester = 0
	c.license = isa.Scalar64
	c.pending = noPending
	c.avx256.reset(cfg.AVX256Gate)
	c.avx512.reset(cfg.AVX512Gate)
	for _, t := range c.threads {
		t.state = tsIdle
		t.kernel = isa.Kernel{}
		t.remUops = 0
		t.spinEnd = 0
		t.preempted = 0
		t.onDone = nil
		t.rate = 0
		t.lastAccrue = 0
		t.completion = sched.EventRef{}
		t.wakeEv = sched.EventRef{}
		t.ctr = Counters{}
	}
	return nil
}

func maxDuration(a, b units.Duration) units.Duration {
	if a > b {
		return a
	}
	return b
}
