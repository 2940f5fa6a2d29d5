package soc

import (
	"fmt"
	"testing"

	"ichannels/internal/isa"
	"ichannels/internal/model"
	"ichannels/internal/units"
)

// signatureOpts is a deliberately feature-dense configuration: TSC jitter
// and OS noise exercise the machine rng, AVX-512 work exercises power
// gates, licenses, throttling, and the license-hysteresis decay events.
func signatureOpts(seed int64) Options {
	return Options{
		Processor:       model.CannonLake8121U(),
		Noise:           WithRates(5000, 500),
		TSCJitterCycles: 150,
		Seed:            seed,
	}
}

// runSignature drives a multi-phase workload on two threads of core 0 and
// returns a deterministic transcript of everything an experiment could
// observe: every action result, periodic electrical probes, and the final
// PMU counters.
func runSignature(t *testing.T, m *Machine) string {
	t.Helper()
	var sig []Result
	phase := 0
	tx := AgentFunc{AgentName: "tx", Fn: func(env *Env, prev *Result) Action {
		if prev != nil {
			sig = append(sig, *prev)
		}
		phase++
		switch phase {
		case 1:
			return Exec(isa.Loop512Heavy, 2000) // license request + gate wake
		case 2:
			return IdleFor(700 * units.Microsecond) // let the license decay
		case 3:
			return Exec(isa.Loop512Heavy, 500) // pay the wake again
		case 4:
			return SpinUntil(env.Now().Add(20 * units.Microsecond))
		default:
			return Stop()
		}
	}}
	rxDone := 0
	rx := AgentFunc{AgentName: "rx", Fn: func(env *Env, prev *Result) Action {
		if prev != nil {
			sig = append(sig, *prev)
		}
		rxDone++
		if rxDone > 40 {
			return Stop()
		}
		return Exec(isa.Loop64b, 200)
	}}
	if _, err := m.Bind(0, 0, tx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Bind(0, 1, rx); err != nil {
		t.Fatal(err)
	}
	var probes []PowerState
	for i := 0; i < 20; i++ {
		m.RunFor(100 * units.Microsecond)
		probes = append(probes, m.ProbeScalars())
	}
	return fmt.Sprintf("results=%+v probes=%+v pmu=%+v time=%v fired=%d",
		sig, probes, m.PMU.Stats(), m.Now(), m.Q.Fired())
}

// TestResetReplaysByteIdentical is the pooling determinism contract: a
// Reset machine must produce exactly the observable transcript of a fresh
// machine with the same options — including the rng-driven noise and
// jitter draws — for its own options, for different options, and back.
func TestResetReplaysByteIdentical(t *testing.T) {
	optsA := signatureOpts(42)
	optsB := signatureOpts(1234)
	optsB.PerThreadThrottle = true
	optsB.RequestedFreq = 2 * units.GHz

	fresh := func(o Options) string {
		m, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		return runSignature(t, m)
	}
	wantA, wantB := fresh(optsA), fresh(optsB)
	if wantA == wantB {
		t.Fatal("signature workload cannot tell optsA from optsB; test is vacuous")
	}

	m, err := New(optsA)
	if err != nil {
		t.Fatal(err)
	}
	_ = runSignature(t, m) // dirty the machine
	for i, step := range []struct {
		opts Options
		want string
	}{
		{optsA, wantA}, // reset to same options
		{optsB, wantB}, // reset across mitigation/frequency/seed changes
		{optsA, wantA}, // and back
	} {
		if err := m.Reset(step.opts); err != nil {
			t.Fatalf("reset %d: %v", i, err)
		}
		if got := runSignature(t, m); got != step.want {
			t.Fatalf("reset %d: transcript diverged from fresh machine\n got: %.400s\nwant: %.400s", i, got, step.want)
		}
	}
}

// TestResetSecureMode covers the settle-before-time-zero path.
func TestResetSecureMode(t *testing.T) {
	opts := signatureOpts(7)
	opts.SecureMode = true
	m1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := runSignature(t, m1)

	m2, err := New(signatureOpts(9))
	if err != nil {
		t.Fatal(err)
	}
	_ = runSignature(t, m2)
	if err := m2.Reset(opts); err != nil {
		t.Fatal(err)
	}
	if m2.Now() == 0 {
		t.Fatal("secure-mode Reset should have advanced past the guardband settle")
	}
	if got := runSignature(t, m2); got != want {
		t.Fatalf("secure-mode reset transcript diverged\n got: %.400s\nwant: %.400s", got, want)
	}
}

func TestResetRejectsTopologyChange(t *testing.T) {
	m, err := New(signatureOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	bad := signatureOpts(1)
	bad.Cores = 1
	if err := m.Reset(bad); err == nil {
		t.Fatal("Reset accepted a core-count change")
	}
}

func TestPoolReusesByShape(t *testing.T) {
	p := NewPool()
	optsA := signatureOpts(3)
	m1, err := p.Acquire(optsA)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(m1)
	optsA2 := signatureOpts(99) // same shape, different seed
	m2, err := p.Acquire(optsA2)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatal("same-shape Acquire did not reuse the pooled machine")
	}
	// Different shape must construct.
	optsB := signatureOpts(3)
	optsB.Cores = 1
	m3, err := p.Acquire(optsB)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Fatal("different-shape Acquire reused an incompatible machine")
	}
	st := p.Stats()
	if st.Constructed != 2 || st.Reused != 1 {
		t.Fatalf("stats = %+v, want 2 constructed / 1 reused", st)
	}
	// A pooled run must match a fresh machine's transcript.
	p.Release(m2)
	m4, err := p.Acquire(optsA)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(optsA)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runSignature(t, m4), runSignature(t, fresh); got != want {
		t.Fatalf("pooled transcript diverged from fresh\n got: %.400s\nwant: %.400s", got, want)
	}
}

func TestNilPoolConstructs(t *testing.T) {
	var p *Pool
	m, err := p.Acquire(signatureOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil pool returned nil machine")
	}
	p.Release(m) // must not panic
	if st := p.Stats(); st != (PoolStats{}) {
		t.Fatalf("nil pool stats = %+v", st)
	}
}

// TestNoiseArrivalsAllocFree: on a recycled machine the noise injector's
// arrivals run on callbacks bound once per machine, so simulating across
// hundreds of interrupts and context switches — each drawing a victim,
// preempting it and arming its successor — allocates nothing.
func TestNoiseArrivalsAllocFree(t *testing.T) {
	opts := signatureOpts(11)
	opts.Noise = WithRates(200000, 20000)
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	_ = runSignature(t, m) // dirty the machine
	if err := m.Reset(opts); err != nil {
		t.Fatal(err)
	}
	// Two threads of scalar work long enough to outlast the measurement:
	// no agent steps, only noise preempting them.
	for slot := 0; slot < 2; slot++ {
		busy := AgentFunc{AgentName: "busy", Fn: func(env *Env, prev *Result) Action {
			if prev != nil {
				return Stop()
			}
			return Exec(isa.Loop64b, 1<<40)
		}}
		if _, err := m.Bind(0, slot, busy); err != nil {
			t.Fatal(err)
		}
	}
	m.RunFor(units.Millisecond) // warm the event free list
	fired := m.Q.Fired()
	const runs = 10
	allocs := testing.AllocsPerRun(runs, func() { m.RunFor(units.Millisecond) })
	if allocs != 0 {
		t.Fatalf("noise arrivals allocated %v per run", allocs)
	}
	// About 220 arrivals per simulated millisecond, each a preemption
	// and its resume.
	if n := m.Q.Fired() - fired; n < 200*(runs+1) {
		t.Fatalf("only %d events fired in %d ms; the test is vacuous", n, runs+1)
	}
}
