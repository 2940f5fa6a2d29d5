// Package workload provides the software contexts the paper's experiments
// run besides the attack code: Agner-Fog-style measurement loops, a power
// virus, a proxy for SPEC CPU2006 454.calculix (alternating non-AVX and
// AVX2 phases, Fig. 6(b)), a 7-zip proxy (bursty AVX2 without AVX-512,
// §6.3), and the synthetic PHI-injecting application used for the noise
// study (Fig. 14(b,c)).
package workload

import (
	"fmt"
	"math"

	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// Phase is one stage of a phased workload.
type Phase struct {
	Kernel isa.Kernel
	Iters  int64
}

// PhasedLoop cycles through phases until a deadline, then stops. It is
// the generic building block for phase-structured applications.
type PhasedLoop struct {
	Label  string
	Phases []Phase
	Until  units.Time

	idx int
}

// Name implements soc.Agent.
func (p *PhasedLoop) Name() string { return p.Label }

// Next implements soc.Agent.
func (p *PhasedLoop) Next(env *soc.Env, prev *soc.Result) soc.Action {
	if env.Now() >= p.Until {
		return soc.Stop()
	}
	if len(p.Phases) == 0 {
		return soc.Stop()
	}
	ph := p.Phases[p.idx%len(p.Phases)]
	p.idx++
	return soc.Exec(ph.Kernel, ph.Iters)
}

// NewCalculixProxy returns an agent mimicking 454.calculix compiled with
// AVX2 auto-vectorization: long scalar phases interleaved with AVX2
// phases of comparable length (the paper's Fig. 6(b) trace alternates on
// the order of hundreds of milliseconds). Iteration counts assume ≈2 GHz.
func NewCalculixProxy(until units.Time) *PhasedLoop {
	// ~200 ms scalar, ~150 ms AVX2 per cycle at 2 GHz.
	scalarIters := int64(2_000_000) // 2e6 × 200 uops / 2 UPC / 2 GHz ≈ 100 ms
	avxIters := int64(1_500_000)    // 1.5e6 × 200 uops / 1 UPC / 2 GHz ≈ 150 ms
	return &PhasedLoop{
		Label: "454.calculix-proxy",
		Phases: []Phase{
			{Kernel: isa.Loop64b, Iters: scalarIters},
			{Kernel: isa.Loop256Heavy, Iters: avxIters},
			{Kernel: isa.Loop64b, Iters: scalarIters / 2},
			{Kernel: isa.Loop256Light, Iters: avxIters / 2},
		},
		Until: until,
	}
}

// SevenZip is a proxy for the 7-zip benchmark: bursts of AVX2 work
// (match/encode loops use 128/256-bit integer SIMD; never AVX-512) with
// scalar bookkeeping in between. Burst lengths are drawn from the
// machine's deterministic RNG.
type SevenZip struct {
	Until units.Time
	burst bool
}

// Name implements soc.Agent.
func (s *SevenZip) Name() string { return "7zip-proxy" }

// Next implements soc.Agent.
func (s *SevenZip) Next(env *soc.Env, prev *soc.Result) soc.Action {
	if env.Now() >= s.Until {
		return soc.Stop()
	}
	rng := env.M.Rand()
	s.burst = !s.burst
	if s.burst {
		// AVX2 burst: mixed light/heavy 256-bit work, 20–200 µs.
		k := isa.Loop256Light
		if rng.Intn(3) == 0 {
			k = isa.Loop256Heavy
		}
		iters := 100 + rng.Int63n(900)
		return soc.Exec(k, iters)
	}
	// Scalar bookkeeping between bursts, 50–500 µs.
	return soc.Exec(isa.Loop64b, 500+rng.Int63n(4500))
}

// PHIInjector is the synthetic "App" of the paper's Fig. 14(b,c): it
// executes short PHI bursts at a configurable average rate, each at a
// fixed or random intensity level, idling in between.
type PHIInjector struct {
	// Rate is the average injection rate in PHI bursts per second.
	Rate float64
	// Class fixes the burst intensity; if Random is set, each burst
	// instead draws uniformly from the four covert-symbol classes.
	Class  isa.Class
	Random bool
	// BurstIters sizes each PHI burst (default 50 iterations).
	BurstIters int64
	// Until stops the injector.
	Until units.Time

	inBurst bool
}

// Name implements soc.Agent.
func (p *PHIInjector) Name() string { return "phi-injector" }

// Validate checks the injector configuration.
func (p *PHIInjector) Validate() error {
	if p.Rate <= 0 {
		return fmt.Errorf("workload: injector rate must be positive, got %g", p.Rate)
	}
	if !p.Random && !p.Class.Valid() {
		return fmt.Errorf("workload: injector class %d invalid", int(p.Class))
	}
	return nil
}

// symbolClasses are the four covert-channel intensity levels (paper
// Fig. 3) the random injector draws from.
var symbolClasses = [4]isa.Class{isa.Vec128Heavy, isa.Vec256Light, isa.Vec256Heavy, isa.Vec512Heavy}

// Next implements soc.Agent.
func (p *PHIInjector) Next(env *soc.Env, prev *soc.Result) soc.Action {
	if env.Now() >= p.Until {
		return soc.Stop()
	}
	rng := env.M.Rand()
	if p.inBurst {
		p.inBurst = false
		cls := p.Class
		if p.Random {
			cls = symbolClasses[rng.Intn(len(symbolClasses))]
		}
		iters := p.BurstIters
		if iters <= 0 {
			iters = 50
		}
		return soc.Exec(isa.KernelFor(cls), iters)
	}
	p.inBurst = true
	// Exponential inter-arrival around the configured rate.
	mean := 1 / p.Rate
	u := rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	gap := units.FromSeconds(mean * -math.Log(u))
	if gap < units.Microsecond {
		gap = units.Microsecond
	}
	return soc.IdleFor(gap)
}
