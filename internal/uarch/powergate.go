package uarch

import (
	"fmt"

	"ichannels/internal/sched"
	"ichannels/internal/units"
)

// PowerGateConfig describes one execution-unit power gate (e.g. the AVX256
// or AVX512 gate present on Skylake and later parts, paper §5.4).
type PowerGateConfig struct {
	// Present is false on parts without the gate (e.g. Haswell's AVX
	// unit is not power-gated; its first AVX iteration pays nothing,
	// Fig. 8(c)).
	Present bool
	// WakeLatency is the staggered wake-up time when the gate opens
	// (8–15 ns measured in the paper; ~0.1% of a throttling period).
	WakeLatency units.Duration
	// IdleTimeout is how long the unit may sit unused before the local
	// PMU closes the gate to save leakage.
	IdleTimeout units.Duration
}

// Validate checks gate parameters.
func (c PowerGateConfig) Validate() error {
	if !c.Present {
		return nil
	}
	if c.WakeLatency < 0 {
		return fmt.Errorf("uarch: negative power-gate wake latency %v", c.WakeLatency)
	}
	if c.IdleTimeout <= 0 {
		return fmt.Errorf("uarch: power-gate idle timeout must be positive, got %v", c.IdleTimeout)
	}
	return nil
}

// PowerGate tracks the open/closed state of one gated execution unit.
// The local PMU opens it on first use (paying the staggered wake latency)
// and closes it after IdleTimeout without use, unless the unit is still
// in active use at that moment.
//
// The idle timer is deadline-lazy: uses only advance the recorded
// deadline (lastUse + IdleTimeout); one scheduled event serves a whole
// busy streak and re-arms itself at the still-future deadline when it
// fires early. The gate still closes at exactly the same simulated time
// as an eager cancel-and-reschedule would, but a use in the hot path
// costs no event allocation.
type PowerGate struct {
	cfg     PowerGateConfig
	q       *sched.Queue
	inUse   func() bool // still actively executing on the unit?
	open    bool
	lastUse units.Time
	closeEv sched.EventRef
	onIdle  func(units.Time) // prebound onIdleTimer, allocated once

	// Wakes counts gate-open transitions (observable in Fig. 8(b) as the
	// first-iteration latency delta).
	Wakes uint64
}

// newPowerGate allocates a gate and binds its idle-timer callback; reset
// sets its state. inUse is consulted when the idle timer fires: if it
// returns true the close is deferred. A gate whose configuration is not
// Present behaves as always-open with zero wake latency.
func newPowerGate(q *sched.Queue, inUse func() bool) *PowerGate {
	g := &PowerGate{q: q, inUse: inUse}
	g.onIdle = g.onIdleTimer
	return g
}

// Open reports whether the gate is currently open (units powered).
func (g *PowerGate) Open() bool { return !g.cfg.Present || g.open }

// Use records a use of the unit at time now and returns the wake delay the
// consumer must wait before executing (zero if the gate was already open).
func (g *PowerGate) Use(now units.Time) units.Duration {
	if !g.cfg.Present {
		return 0
	}
	g.lastUse = now
	if g.open {
		g.armClose()
		return 0
	}
	g.open = true
	g.Wakes++
	g.armClose()
	return g.cfg.WakeLatency
}

// Touch refreshes the idle timer without requesting a wake (used when a
// long-running kernel keeps the unit busy).
func (g *PowerGate) Touch(now units.Time) {
	if !g.cfg.Present || !g.open {
		return
	}
	g.lastUse = now
	g.armClose()
}

// armClose ensures a close timer is pending. An already-live timer is
// left alone: it may fire before the current deadline, but onIdleTimer
// re-arms at the true deadline, so the close time is unchanged.
func (g *PowerGate) armClose() {
	if g.closeEv.Cancelled() {
		g.closeEv = g.q.At(g.lastUse.Add(g.cfg.IdleTimeout), g.onIdle)
	}
}

// reset puts the gate in its closed, never-used state under a (possibly
// updated) configuration. The owning core guarantees the scheduler was
// reset too, so no close timer is pending.
func (g *PowerGate) reset(cfg PowerGateConfig) {
	g.cfg = cfg
	g.open = false
	g.lastUse = 0
	g.closeEv = sched.EventRef{}
	g.Wakes = 0
}

func (g *PowerGate) onIdleTimer(now units.Time) {
	if !g.open {
		return
	}
	if deadline := g.lastUse.Add(g.cfg.IdleTimeout); deadline > now {
		// Used since this timer was armed: sleep on to the live deadline.
		g.closeEv = g.q.At(deadline, g.onIdle)
		return
	}
	if g.inUse() {
		// Unit still busy: check again a full timeout later.
		g.lastUse = now
		g.closeEv = g.q.At(now.Add(g.cfg.IdleTimeout), g.onIdle)
		return
	}
	g.open = false
}
