package soc

import (
	"fmt"

	"ichannels/internal/isa"
	"ichannels/internal/uarch"
	"ichannels/internal/units"
)

// ActionKind enumerates what a software context can ask its hardware
// thread to do next.
type ActionKind int

const (
	// ActStop ends the agent; the hardware thread goes idle for good.
	ActStop ActionKind = iota
	// ActExec runs a kernel for a number of iterations.
	ActExec
	// ActSpinUntil busy-waits (an rdtsc polling loop) until an absolute
	// simulated time; this is the wall-clock synchronization primitive
	// the cross-core channel uses (paper §4.3.3).
	ActSpinUntil
	// ActIdleFor parks the thread off-core (e.g. blocked in the OS) for
	// a duration; it does not occupy pipeline resources.
	ActIdleFor
)

func (k ActionKind) String() string {
	switch k {
	case ActStop:
		return "stop"
	case ActExec:
		return "exec"
	case ActSpinUntil:
		return "spin"
	case ActIdleFor:
		return "idle"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one unit of behaviour an agent requests.
type Action struct {
	Kind   ActionKind
	Kernel isa.Kernel
	Iters  int64
	Until  units.Time
	Dur    units.Duration
}

// Exec builds an action running iters iterations of k.
func Exec(k isa.Kernel, iters int64) Action {
	return Action{Kind: ActExec, Kernel: k, Iters: iters}
}

// SpinUntil builds a busy-wait action ending at absolute time t.
func SpinUntil(t units.Time) Action { return Action{Kind: ActSpinUntil, Until: t} }

// IdleFor builds an off-core idle action of duration d.
func IdleFor(d units.Duration) Action { return Action{Kind: ActIdleFor, Dur: d} }

// Stop ends the agent.
func Stop() Action { return Action{Kind: ActStop} }

// Result describes a completed action, with the timing and counter data a
// real attacker would gather with rdtsc and perf counters.
type Result struct {
	Action   Action
	Start    units.Time
	End      units.Time
	StartTSC int64
	EndTSC   int64
	// Counters is the per-thread performance-counter delta over the
	// action (meaningful for ActExec and ActSpinUntil).
	Counters uarch.Counters
}

// Elapsed returns the action's wall-clock duration.
func (r Result) Elapsed() units.Duration { return r.End.Sub(r.Start) }

// ElapsedTSC returns the rdtsc-style cycle count of the action.
func (r Result) ElapsedTSC() int64 { return r.EndTSC - r.StartTSC }

// Env gives an agent its execution context: identity, the clock it can
// legitimately read (TSC), and the machine's random source for jitter.
type Env struct {
	M      *Machine
	CoreID int
	Slot   int
}

// Now returns the current simulated time (an agent would obtain this by
// converting rdtsc; both are exposed for convenience).
func (e *Env) Now() units.Time { return e.M.Now() }

// TSC returns the current timestamp-counter value.
func (e *Env) TSC() int64 { return e.M.TSC(e.M.Now()) }

// Agent is a reactive software context: each time its previous action
// completes, Next is asked for the following one. prev is nil on the first
// call and is only valid for the duration of that call — the machine
// reuses the Result storage for the thread's next transition, so an
// agent that needs a field later must copy the value out. Agents run
// entirely inside the deterministic event loop.
type Agent interface {
	Name() string
	Next(env *Env, prev *Result) Action
}

// SWThread binds an agent to a hardware thread slot.
type SWThread struct {
	m       *Machine
	env     Env
	agent   Agent
	stopped bool

	// In-flight action state and the reused Result. One hardware thread
	// runs one action at a time, so a single pending slot per thread
	// suffices; binding the completion callbacks once per thread keeps
	// the agent transition loop — the single hottest path of the
	// simulator — free of per-step closure and Result allocations.
	pendAct    Action
	pendStart  units.Time
	pendTSC    int64
	pendCtr    uarch.Counters
	res        Result
	onDone     func(units.Time) // completes ActExec / ActSpinUntil
	onIdleDone func(units.Time) // completes ActIdleFor
	onBind     func(units.Time) // asks a newly bound agent for its first action
}

// Agent returns the bound agent.
func (t *SWThread) Agent() Agent { return t.agent }

// Stopped reports whether the agent has returned ActStop.
func (t *SWThread) Stopped() bool { return t.stopped }

// CoreID returns the core the thread is bound to.
func (t *SWThread) CoreID() int { return t.env.CoreID }

// Slot returns the hardware thread slot.
func (t *SWThread) Slot() int { return t.env.Slot }

// Bind attaches an agent to (coreID, slot) and schedules its first step at
// the current simulated time. Each hardware thread slot can host at most
// one agent.
func (m *Machine) Bind(coreID, slot int, a Agent) (*SWThread, error) {
	if coreID < 0 || coreID >= len(m.Cores) {
		return nil, fmt.Errorf("soc: no core %d", coreID)
	}
	if slot < 0 || slot >= m.Proc.SMTWays {
		return nil, fmt.Errorf("soc: core %d has no SMT slot %d", coreID, slot)
	}
	// m.threads holds only live threads, so this duplicate-slot check is
	// O(bound slots) no matter how many agents have come and gone — it
	// used to scan every thread ever bound, which made long machine
	// reuse (thousands of transmissions on one machine) quadratic.
	for _, t := range m.threads {
		if t.env.CoreID == coreID && t.env.Slot == slot {
			return nil, fmt.Errorf("soc: core %d slot %d already bound to %q", coreID, slot, t.agent.Name())
		}
	}
	if a == nil {
		return nil, fmt.Errorf("soc: nil agent")
	}
	t := m.newThread()
	t.agent = a
	t.env = Env{M: m, CoreID: coreID, Slot: slot}
	m.threads = append(m.threads, t)
	m.Q.After(0, t.onBind)
	return t, nil
}

// newThread takes a recycled SWThread from the free list (keeping its
// prebound completion callbacks) or allocates one.
func (m *Machine) newThread() *SWThread {
	if n := len(m.freeTh); n > 0 {
		t := m.freeTh[n-1]
		m.freeTh[n-1] = nil
		m.freeTh = m.freeTh[:n-1]
		t.stopped = false
		t.pendAct = Action{}
		t.pendStart = 0
		t.pendTSC = 0
		t.pendCtr = uarch.Counters{}
		t.res = Result{}
		return t
	}
	t := &SWThread{m: m}
	t.onDone = t.completeMeasured
	t.onIdleDone = t.completeIdle
	t.onBind = t.start
	return t
}

// start steps a newly bound agent for its first action.
func (t *SWThread) start(units.Time) { t.m.step(t, nil) }

// retire removes a stopped thread from the live list, preserving bind
// order for the remaining threads (the noise injector's victim draw
// depends on that order). The object itself is recycled at the next
// machine Reset, not immediately: callers may hold the *SWThread and
// poll Stopped() after the agent exits.
func (m *Machine) retire(t *SWThread) {
	for i, lt := range m.threads {
		if lt == t {
			copy(m.threads[i:], m.threads[i+1:])
			m.threads[len(m.threads)-1] = nil
			m.threads = m.threads[:len(m.threads)-1]
			break
		}
	}
	m.retired = append(m.retired, t)
}

// completeMeasured finishes an ActExec/ActSpinUntil action: fill the
// thread's reused Result from the pending state and step the agent.
func (t *SWThread) completeMeasured(end units.Time) {
	m := t.m
	core := m.Cores[t.env.CoreID]
	t.res = Result{
		Action: t.pendAct, Start: t.pendStart, End: end,
		StartTSC: t.pendTSC, EndTSC: m.ReadTSC(end),
		Counters: core.Counters(t.env.Slot, end).Sub(t.pendCtr),
	}
	m.step(t, &t.res)
}

// completeIdle finishes an ActIdleFor action (no counters: the thread
// was off-core).
func (t *SWThread) completeIdle(end units.Time) {
	m := t.m
	t.res = Result{
		Action: t.pendAct, Start: t.pendStart, End: end,
		StartTSC: t.pendTSC, EndTSC: m.TSC(end),
	}
	m.step(t, &t.res)
}

// step drives one agent transition: deliver the previous result, obtain
// the next action, and submit it to the core.
func (m *Machine) step(t *SWThread, prev *Result) {
	if t.stopped {
		return
	}
	act := t.agent.Next(&t.env, prev)
	core := m.Cores[t.env.CoreID]
	now := m.Q.Now()
	switch act.Kind {
	case ActStop:
		t.stopped = true
		m.retire(t)

	case ActExec:
		t.pendAct, t.pendStart = act, now
		t.pendCtr = core.Counters(t.env.Slot, now)
		t.pendTSC = m.ReadTSC(now)
		core.Start(t.env.Slot, act.Kernel, act.Iters, t.onDone)

	case ActSpinUntil:
		t.pendAct, t.pendStart = act, now
		t.pendCtr = core.Counters(t.env.Slot, now)
		t.pendTSC = m.ReadTSC(now)
		core.Spin(t.env.Slot, act.Until, t.onDone)

	case ActIdleFor:
		t.pendAct, t.pendStart = act, now
		t.pendTSC = m.TSC(now)
		m.Q.After(act.Dur, t.onIdleDone)

	default:
		panic(fmt.Sprintf("soc: agent %q returned invalid action kind %v", t.agent.Name(), act.Kind))
	}
}

// AgentFunc adapts a function to the Agent interface.
type AgentFunc struct {
	AgentName string
	Fn        func(env *Env, prev *Result) Action
}

// Name implements Agent.
func (a AgentFunc) Name() string { return a.AgentName }

// Next implements Agent.
func (a AgentFunc) Next(env *Env, prev *Result) Action { return a.Fn(env, prev) }
