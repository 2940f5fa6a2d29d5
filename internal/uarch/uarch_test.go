package uarch

import (
	"fmt"
	"math"
	"testing"

	"ichannels/internal/isa"
	"ichannels/internal/sched"
	"ichannels/internal/units"
)

// fakeCM is a scriptable CurrentManager: it can grant instantly, after a
// delay, or never.
type fakeCM struct {
	q          *sched.Queue
	grantAfter units.Duration // <0: never grant
	requests   []isa.Class
	touches    []isa.Class
	core       *Core
}

func (f *fakeCM) RequestLicense(coreID int, c isa.Class) {
	f.requests = append(f.requests, c)
	if f.grantAfter < 0 {
		return
	}
	f.q.After(f.grantAfter, func(now units.Time) {
		f.core.GrantLicense(c, now)
	})
}

func (f *fakeCM) TouchLicense(coreID int, c isa.Class) { f.touches = append(f.touches, c) }

func testCoreConfig() Config {
	return Config{
		ID:             0,
		SMTWays:        2,
		DeliverWidth:   4,
		ThrottleFactor: 0.25,
		AVX256Gate:     PowerGateConfig{Present: true, WakeLatency: 10 * units.Nanosecond, IdleTimeout: 5 * units.Microsecond},
		AVX512Gate:     PowerGateConfig{Present: true, WakeLatency: 14 * units.Nanosecond, IdleTimeout: 5 * units.Microsecond},
	}
}

func newTestCore(t testing.TB, cfg Config, grantAfter units.Duration) (*Core, *sched.Queue, *fakeCM) {
	t.Helper()
	q := sched.NewQueue()
	cm := &fakeCM{q: q, grantAfter: grantAfter}
	c, err := NewCore(cfg, q, cm)
	if err != nil {
		t.Fatal(err)
	}
	cm.core = c
	c.SetFrequency(2*units.GHz, 0)
	return c, q, cm
}

func TestConfigValidation(t *testing.T) {
	if err := testCoreConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := testCoreConfig()
	bad.SMTWays = 3
	if bad.Validate() == nil {
		t.Error("SMTWays=3 accepted")
	}
	bad = testCoreConfig()
	bad.ThrottleFactor = 0
	if bad.Validate() == nil {
		t.Error("zero throttle factor accepted")
	}
	bad = testCoreConfig()
	bad.DeliverWidth = 0
	if bad.Validate() == nil {
		t.Error("zero width accepted")
	}
}

func TestScalarExecutionTiming(t *testing.T) {
	c, q, cm := newTestCore(t, testCoreConfig(), 0)
	var done units.Time
	// 100 iters × 200 uops at 2 UPC, 2 GHz → 10000 cycles → 5 µs.
	c.Start(0, isa.Loop64b, 100, func(now units.Time) { done = now })
	q.Run(0)
	want := 5 * units.Microsecond
	if got := units.Duration(done); got != want {
		t.Fatalf("elapsed %v, want %v", got, want)
	}
	if len(cm.requests) != 0 {
		t.Fatal("scalar code must not request a license")
	}
	if len(cm.touches) == 0 {
		t.Fatal("kernel start must touch the license window")
	}
}

func TestThrottledExecutionTiming(t *testing.T) {
	// Grant after 12 µs: the PHI loop runs at 1/4 rate for 12 µs, then
	// full rate. 100 iters × 200 uops at 1 UPC, 2 GHz = 10 µs of work;
	// elapsed = 12 + (20000 − 12µs×0.5e9 uops)/2e9... computed: work
	// done during TP = 12 µs × 0.25 × 2e9 = 6000 uops; remaining 14000
	// at 2e9 uops/s = 7 µs → total 19 µs = 0.75·TP + W/r.
	c, q, _ := newTestCore(t, testCoreConfig(), 12*units.Microsecond)
	var done units.Time
	c.Start(0, isa.Loop256Heavy, 100, func(now units.Time) { done = now })
	q.Run(0)
	// Plus ~3 ns: the 10 ns AVX power-gate wake defers the start of
	// throttled execution, and the lost quarter-rate time is made up at
	// full rate.
	want := 19 * units.Microsecond
	if got := units.Duration(done); got < want-10*units.Nanosecond || got > want+10*units.Nanosecond {
		t.Fatalf("elapsed %v, want ≈%v", got, want)
	}
	if got := c.ThrottleTime(q.Now()); got != 12*units.Microsecond {
		t.Fatalf("throttle time %v", got)
	}
}

func TestLicenseEscalationRequestsOnce(t *testing.T) {
	c, q, cm := newTestCore(t, testCoreConfig(), units.Microsecond)
	c.Start(0, isa.Loop256Heavy, 10, nil)
	q.Run(0)
	if len(cm.requests) != 1 || cm.requests[0] != isa.Vec256Heavy {
		t.Fatalf("requests = %v", cm.requests)
	}
	// Re-running the same class with the license granted: no new request.
	c.Start(0, isa.Loop256Heavy, 10, nil)
	q.Run(0)
	if len(cm.requests) != 1 {
		t.Fatalf("redundant request issued: %v", cm.requests)
	}
	// A higher class must request again.
	c.Start(0, isa.Loop512Heavy, 10, nil)
	q.Run(0)
	if len(cm.requests) != 2 || cm.requests[1] != isa.Vec512Heavy {
		t.Fatalf("requests = %v", cm.requests)
	}
}

func TestSMTSharingHalvesRates(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	var d0, d1 units.Time
	// Two scalar threads sharing the front-end: each takes twice as long
	// as it would alone (5 µs → 10 µs).
	c.Start(0, isa.Loop64b, 100, func(now units.Time) { d0 = now })
	c.Start(1, isa.Loop64b, 100, func(now units.Time) { d1 = now })
	q.Run(0)
	if units.Duration(d0) != 10*units.Microsecond || units.Duration(d1) != 10*units.Microsecond {
		t.Fatalf("SMT elapsed: %v, %v", units.Duration(d0), units.Duration(d1))
	}
}

func TestSMTSiblingThrottledTogether(t *testing.T) {
	// The PHI thread throttles the whole core: a scalar sibling running
	// concurrently also slows 4× while the throttle lasts (paper §5.6).
	c, q, _ := newTestCore(t, testCoreConfig(), 20*units.Microsecond)
	var dScalar units.Time
	c.Start(0, isa.Loop256Heavy, 400, nil)
	c.Start(1, isa.Loop64b, 100, func(now units.Time) { dScalar = now })
	q.Run(0)
	// Scalar thread: 10000 cycles of work, SMT-shared (×0.5) and
	// throttled (×0.25) for the whole 20 µs window: rate 0.25 uops/ns →
	// 20 µs × 5000... work = 20000 uops? No: 100×200 = 20000 uops at
	// 2 UPC → shared 1 UPC → throttled 0.25 UPC = 0.5e9 uops/s →
	// 20000/0.5e9 = 40 µs > TP. After TP: rate 1 UPC ×2e9... = 2e9.
	// Done = 20 µs + (20000 − 10000)/2e9 = 25 µs.
	want := 25 * units.Microsecond
	if got := units.Duration(dScalar); got < want-100 || got > want+100 {
		t.Fatalf("sibling elapsed %v, want ≈%v", got, want)
	}
}

func TestPerThreadThrottleSparesSibling(t *testing.T) {
	cfg := testCoreConfig()
	cfg.PerThreadThrottle = true
	c, q, _ := newTestCore(t, cfg, 20*units.Microsecond)
	var dScalar units.Time
	c.Start(0, isa.Loop256Heavy, 400, nil)
	c.Start(1, isa.Loop64b, 100, func(now units.Time) { dScalar = now })
	q.Run(0)
	// With improved throttling the sibling runs SMT-shared but never
	// throttled: 20000 uops at 1 UPC × 2 GHz = 10 µs.
	want := 10 * units.Microsecond
	if got := units.Duration(dScalar); got < want-100 || got > want+2*units.Microsecond {
		t.Fatalf("sibling elapsed %v, want ≈%v", got, want)
	}
}

func TestUndeliveredCounterFractions(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 15*units.Microsecond)
	c.Start(0, isa.Loop256Heavy, 400, nil)
	q.RunUntil(units.Time(10 * units.Microsecond)) // inside the throttle window
	ctr := c.Counters(0, q.Now())
	frac := ctr.UndeliveredFraction(4)
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("throttled undelivered fraction = %g, want ≈0.75", frac)
	}
	// After the throttle: fraction decays toward the baseline.
	q.Run(0)
	end := c.Counters(0, q.Now())
	delta := end.Sub(ctr)
	tail := delta.UndeliveredFraction(4)
	if tail > 0.2 {
		t.Fatalf("unthrottled fraction = %g", tail)
	}
}

func TestPowerGateFirstUseOnly(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	var d1, d2 units.Duration
	start := q.Now()
	c.Start(0, isa.Loop256Heavy, 1, func(now units.Time) {
		d1 = now.Sub(start)
		second := now
		c.Start(0, isa.Loop256Heavy, 1, func(n2 units.Time) { d2 = n2.Sub(second) })
	})
	q.Run(0)
	if d1-d2 != 10*units.Nanosecond {
		t.Fatalf("first-use wake delta = %v, want 10ns", d1-d2)
	}
	if c.AVX256Wakes() != 1 {
		t.Fatalf("wakes = %d", c.AVX256Wakes())
	}
}

func TestPowerGateClosesAfterIdle(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	c.Start(0, isa.Loop256Heavy, 1, nil)
	q.Run(0)
	// Past the 5 µs idle timeout the gate closes; next use wakes again.
	q.At(q.Now().Add(20*units.Microsecond), func(now units.Time) {
		c.Start(0, isa.Loop256Heavy, 1, nil)
	})
	q.Run(0)
	if c.AVX256Wakes() != 2 {
		t.Fatalf("wakes = %d, want 2 (gate must close after idle)", c.AVX256Wakes())
	}
}

func TestAVX512OpensBothGates(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	c.Start(0, isa.Loop512Heavy, 1, nil)
	q.Run(0)
	if c.AVX256Wakes() != 1 || c.AVX512Wakes() != 1 {
		t.Fatalf("wakes = %d/%d", c.AVX256Wakes(), c.AVX512Wakes())
	}
}

func TestScalarDoesNotTouchGates(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	c.Start(0, isa.Loop64b, 10, nil)
	c.Start(1, isa.Loop128Heavy, 10, nil) // 128-bit: not AVX-gated
	q.Run(0)
	if c.AVX256Wakes() != 0 || c.AVX512Wakes() != 0 {
		t.Fatal("non-AVX work opened a gate")
	}
}

func TestSpinOccupiesUntil(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	var done units.Time
	c.Spin(0, units.Time(7*units.Microsecond), func(now units.Time) { done = now })
	if c.BusyThreads() != 1 {
		t.Fatal("spin must occupy the slot")
	}
	q.Run(0)
	if done != units.Time(7*units.Microsecond) {
		t.Fatalf("spin ended at %v", done)
	}
	if c.BusyThreads() != 0 {
		t.Fatal("slot not freed")
	}
}

func TestPreemptPausesProgress(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	var done units.Time
	c.Start(0, isa.Loop64b, 100, func(now units.Time) { done = now }) // 5 µs of work
	q.RunUntil(units.Time(units.Microsecond))
	c.Preempt(0, 3*units.Microsecond)
	q.Run(0)
	want := 8 * units.Microsecond // 5 µs work + 3 µs preemption
	if got := units.Duration(done); got != want {
		t.Fatalf("elapsed %v, want %v", got, want)
	}
}

func TestNestedPreemption(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	var done units.Time
	c.Start(0, isa.Loop64b, 100, func(now units.Time) { done = now })
	q.RunUntil(units.Time(units.Microsecond))
	c.Preempt(0, 2*units.Microsecond)
	c.Preempt(0, 4*units.Microsecond) // overlapping: total pause 4 µs
	q.Run(0)
	want := 9 * units.Microsecond
	if got := units.Duration(done); got != want {
		t.Fatalf("elapsed %v, want %v", got, want)
	}
}

func TestHaltStopsEverything(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	var done units.Time
	c.Start(0, isa.Loop64b, 100, func(now units.Time) { done = now })
	q.RunUntil(units.Time(units.Microsecond))
	c.SetHalted(true, q.Now())
	q.RunUntil(units.Time(3 * units.Microsecond))
	c.SetHalted(false, q.Now())
	q.Run(0)
	if got := units.Duration(done); got != 7*units.Microsecond {
		t.Fatalf("elapsed %v, want 7µs (2µs halt)", got)
	}
	// CPU_CLK_UNHALTED must exclude the halt.
	ctr := c.Counters(0, q.Now())
	wantCycles := 5e-6 * 2e9 // only the running time
	if math.Abs(ctr.UnhaltedCycles-wantCycles) > 1 {
		t.Fatalf("unhalted cycles = %g, want %g", ctr.UnhaltedCycles, wantCycles)
	}
}

func TestFrequencyChangeMidKernel(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	var done units.Time
	c.Start(0, isa.Loop64b, 100, func(now units.Time) { done = now }) // 10000 cycles
	q.RunUntil(units.Time(units.Microsecond))                         // 2000 cycles done at 2 GHz
	c.SetFrequency(1*units.GHz, q.Now())
	q.Run(0)
	// Remaining 8000 cycles at 1 GHz = 8 µs → total 9 µs.
	if got := units.Duration(done); got != 9*units.Microsecond {
		t.Fatalf("elapsed %v, want 9µs", got)
	}
}

func TestDutyCycleSlowsRetirement(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	var done units.Time
	c.Start(0, isa.Loop64b, 100, func(now units.Time) { done = now }) // 10000 cycles
	q.RunUntil(units.Time(units.Microsecond))                         // 2000 cycles done at 2 GHz
	c.SetDutyCycle(0.25, q.Now())
	q.Run(0)
	// Remaining 8000 cycles at quarter duty = 4× wall time: 16 µs → 17 µs.
	if got := units.Duration(done); got != 17*units.Microsecond {
		t.Fatalf("elapsed %v, want 17µs", got)
	}
	// The off cycles count as undelivered slots, and unhalted cycles keep
	// accruing at the unmodulated clock.
	ctr := c.Counters(0, q.Now())
	wantCycles := 17e-6 * 2e9
	if math.Abs(ctr.UnhaltedCycles-wantCycles) > 1 {
		t.Fatalf("unhalted cycles = %g, want %g", ctr.UnhaltedCycles, wantCycles)
	}
	frac := Counters{UnhaltedCycles: ctr.UnhaltedCycles - 2000, UndeliveredSlots: ctr.UndeliveredSlots}.UndeliveredFraction(4)
	if frac < 0.7 {
		t.Fatalf("modulated undelivered fraction = %g, want ≥0.75-ish", frac)
	}
	// Restoring duty 1 must be a clean no-op state.
	c.SetDutyCycle(1, q.Now())
	if c.DutyCycle() != 1 {
		t.Fatalf("duty = %g after restore", c.DutyCycle())
	}
}

func TestDutyCycleValidation(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	for _, d := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duty %g accepted", d)
				}
			}()
			c.SetDutyCycle(d, q.Now())
		}()
	}
}

func TestDowngradeKeepsPendingThrottle(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), -1) // never grant
	c.Start(0, isa.Loop256Heavy, 10, nil)
	if !c.Throttled() {
		t.Fatal("must throttle while the request is pending")
	}
	c.DowngradeLicense(isa.Scalar64, q.Now())
	if !c.Throttled() {
		t.Fatal("downgrade must not lift a pending-throttle")
	}
	c.GrantLicense(isa.Vec256Heavy, q.Now())
	if c.Throttled() {
		t.Fatal("grant must lift the throttle")
	}
}

func TestActivityReporting(t *testing.T) {
	c, q, _ := newTestCore(t, testCoreConfig(), 0)
	c.Start(0, isa.Loop256Heavy, 100, nil)
	q.RunUntil(units.Time(100 * units.Nanosecond))
	acts := c.Activity()
	if len(acts) != 2 {
		t.Fatalf("activity entries = %d", len(acts))
	}
	if !acts[0].Busy || acts[0].Class != isa.Vec256Heavy {
		t.Fatalf("activity[0] = %+v", acts[0])
	}
	if acts[1].Busy {
		t.Fatal("idle slot reported busy")
	}
}

func TestStartOnBusySlotPanics(t *testing.T) {
	c, _, _ := newTestCore(t, testCoreConfig(), 0)
	c.Start(0, isa.Loop64b, 10, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Start(0, isa.Loop64b, 10, nil)
}

func TestStartBeforeFrequencyPanics(t *testing.T) {
	q := sched.NewQueue()
	cm := &fakeCM{q: q}
	c, err := NewCore(testCoreConfig(), q, cm)
	if err != nil {
		t.Fatal(err)
	}
	cm.core = c
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Start(0, isa.Loop64b, 10, nil)
}

// driveCore runs a script that touches every piece of core state — a
// license request and its throttle, both AVX gates, SMT sharing, a
// preemption, a spin, clock modulation and a halt — logging each
// completion into the returned transcript.
func driveCore(c *Core, q *sched.Queue) string {
	log := ""
	done := func(what string) func(units.Time) {
		return func(now units.Time) { log += fmt.Sprintf("%s@%v ", what, now) }
	}
	c.SetFrequency(2*units.GHz, q.Now())
	c.Start(0, isa.Loop512Heavy, 200, done("avx512"))
	c.Start(1, isa.Loop64b, 100, func(now units.Time) {
		done("scalar")(now)
		c.Spin(1, now.Add(3*units.Microsecond), done("spin"))
	})
	c.Preempt(0, units.Microsecond)
	q.RunUntil(q.Now().Add(2 * units.Microsecond))
	c.SetDutyCycle(0.5, q.Now())
	c.SetHalted(true, q.Now())
	q.RunUntil(q.Now().Add(units.Microsecond))
	c.SetHalted(false, q.Now())
	q.Run(0)
	return log + coreTranscript(c, q)
}

// coreTranscript renders everything a core shows its callers.
func coreTranscript(c *Core, q *sched.Queue) string {
	now := q.Now()
	out := fmt.Sprintf("now=%v freq=%v halted=%v duty=%v throttled=%v/%v license=%v busy=%d wakes=%d/%d act=%+v\n",
		now, c.Frequency(), c.Halted(), c.DutyCycle(), c.Throttled(), c.ThrottleTime(now),
		c.License(), c.BusyThreads(), c.AVX256Wakes(), c.AVX512Wakes(), c.Activity())
	for slot := range c.threads {
		out += fmt.Sprintf("slot %d: %+v\n", slot, c.Counters(slot, now))
	}
	return out
}

// TestResetMatchesNewCore: a core that has run, once Reset under new
// knobs, is indistinguishable from NewCore under those knobs and replays
// the same transcript, license requests included.
func TestResetMatchesNewCore(t *testing.T) {
	used, q, cm := newTestCore(t, testCoreConfig(), 2*units.Microsecond)
	driveCore(used, q)
	cfg := testCoreConfig()
	cfg.PerThreadThrottle = true
	cfg.AVX512Gate.WakeLatency = 20 * units.Nanosecond
	q.Reset()
	if err := used.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	cm.requests, cm.touches = nil, nil

	fq := sched.NewQueue()
	fcm := &fakeCM{q: fq, grantAfter: 2 * units.Microsecond}
	fresh, err := NewCore(cfg, fq, fcm)
	if err != nil {
		t.Fatal(err)
	}
	fcm.core = fresh
	if got, want := coreTranscript(used, q), coreTranscript(fresh, fq); got != want {
		t.Fatalf("reset core:\n%s\nnew core:\n%s", got, want)
	}
	got, want := driveCore(used, q), driveCore(fresh, fq)
	if got != want {
		t.Fatalf("replay after Reset:\n%s\nfresh replay:\n%s", got, want)
	}
	if fmt.Sprint(cm.requests, cm.touches) != fmt.Sprint(fcm.requests, fcm.touches) || len(fcm.requests) == 0 {
		t.Fatalf("license traffic: reset %v %v, fresh %v %v", cm.requests, cm.touches, fcm.requests, fcm.touches)
	}
	if err := used.Reset(Config{ID: 1, SMTWays: 2, DeliverWidth: 4, ThrottleFactor: 0.25}); err == nil {
		t.Fatal("Reset changed the core's identity")
	}
}
