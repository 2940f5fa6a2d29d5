package soc

import (
	"math"

	"ichannels/internal/units"
)

// NoiseConfig describes OS noise injection: interrupts and context
// switches with Poisson arrivals, matching the system-noise model of the
// paper's §6.3 (interrupt latencies of a few µs, context switches of a few
// tens of µs, at rates from a few to thousands of events per second).
type NoiseConfig struct {
	// InterruptRate is the machine-wide interrupt arrival rate, events
	// per second. Zero disables interrupts.
	InterruptRate float64
	// InterruptMin/Max bound the uniformly drawn interrupt service time.
	InterruptMin, InterruptMax units.Duration

	// CtxSwitchRate is the context-switch arrival rate, events/second.
	CtxSwitchRate float64
	// CtxSwitchMin/Max bound the uniformly drawn switch-out duration.
	CtxSwitchMin, CtxSwitchMax units.Duration
}

// DefaultInterrupt returns typical interrupt service bounds (paper §6.3
// cites a few microseconds).
func DefaultInterrupt() (units.Duration, units.Duration) {
	return 2 * units.Microsecond, 8 * units.Microsecond
}

// DefaultCtxSwitch returns typical context-switch bounds (paper §6.3 cites
// a few tens of microseconds).
func DefaultCtxSwitch() (units.Duration, units.Duration) {
	return 10 * units.Microsecond, 30 * units.Microsecond
}

// WithRates builds a NoiseConfig with default durations at the given
// event rates.
func WithRates(interruptsPerSec, ctxSwitchesPerSec float64) NoiseConfig {
	imin, imax := DefaultInterrupt()
	cmin, cmax := DefaultCtxSwitch()
	return NoiseConfig{
		InterruptRate: interruptsPerSec, InterruptMin: imin, InterruptMax: imax,
		CtxSwitchRate: ctxSwitchesPerSec, CtxSwitchMin: cmin, CtxSwitchMax: cmax,
	}
}

// noiseInjector arms the Poisson interrupt and context-switch arrivals.
// A Machine holds one by value: bind prebinds its two arrival callbacks
// once per machine, and reset re-arms them per run, so an arrival
// schedules the next without allocating.
type noiseInjector struct {
	m   *Machine
	cfg NoiseConfig

	irqFn, ctxFn func(units.Time) // prebound arrival callbacks
}

// bind attaches the injector to m and binds its arrival callbacks. Each
// arrival preempts a victim, then draws the gap to its successor.
func (n *noiseInjector) bind(m *Machine) {
	n.m = m
	n.irqFn = func(units.Time) {
		n.fire(n.cfg.InterruptMin, n.cfg.InterruptMax)
		n.scheduleNext(n.cfg.InterruptRate, n.irqFn)
	}
	n.ctxFn = func(units.Time) {
		n.fire(n.cfg.CtxSwitchMin, n.cfg.CtxSwitchMax)
		n.scheduleNext(n.cfg.CtxSwitchRate, n.ctxFn)
	}
}

// reset arms the first arrival of each enabled event type under cfg. The
// machine's event queue must have been reset first.
func (n *noiseInjector) reset(cfg NoiseConfig) {
	n.cfg = cfg
	if cfg.InterruptRate > 0 {
		n.scheduleNext(cfg.InterruptRate, n.irqFn)
	}
	if cfg.CtxSwitchRate > 0 {
		n.scheduleNext(cfg.CtxSwitchRate, n.ctxFn)
	}
}

// scheduleNext arms the next Poisson arrival of one event type.
func (n *noiseInjector) scheduleNext(rate float64, arrive func(units.Time)) {
	gap := units.FromSeconds(n.exp(1 / rate))
	if gap < 1 {
		gap = 1
	}
	n.m.Q.After(gap, arrive)
}

// fire preempts one randomly chosen bound hardware thread for a uniformly
// drawn service time. m.threads holds exactly the live threads in bind
// order — the same candidate list the old scan over all ever-bound
// threads produced, so the victim draw sequence is unchanged — without
// building a candidate slice per arrival.
func (n *noiseInjector) fire(dmin, dmax units.Duration) {
	live := n.m.threads
	if len(live) == 0 {
		return
	}
	victim := live[n.m.Rand().Intn(len(live))]
	dur := dmin
	if dmax > dmin {
		dur = dmin + units.Duration(n.m.Rand().Int63n(int64(dmax-dmin)))
	}
	n.m.Cores[victim.env.CoreID].Preempt(victim.env.Slot, dur)
}

// exp draws an exponential variate with the given mean (seconds).
func (n *noiseInjector) exp(mean float64) float64 {
	u := n.m.Rand().Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}
