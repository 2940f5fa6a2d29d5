// Package pdn models the power delivery network of a client processor:
// voltage regulators (motherboard VR, fully-integrated VR, per-core LDO),
// the serial voltage identification (SVID) command interface, linear
// slew-rate voltage ramps, and the load-line relationship between regulator
// output voltage and the voltage seen at the cores.
//
// The regulator ramp time is the dominant component (~99%, paper §5.4) of
// the throttling period the covert channels exploit, so its model — command
// latency plus |ΔV| / slew — is the single most important calibration
// surface in the simulator.
package pdn

import (
	"fmt"

	"ichannels/internal/units"
)

// Kind identifies the regulator technology. Different technologies differ
// primarily in voltage slew rate and command latency (paper §2, §7).
type Kind int

const (
	// MBVR is a motherboard voltage regulator, shared by all cores and
	// commanded over SVID. Slowest ramps (Coffee Lake, Cannon Lake).
	MBVR Kind = iota
	// FIVR is a fully-integrated on-die voltage regulator (Haswell).
	// Faster ramps than MBVR but still microseconds for guardband steps.
	FIVR
	// LDO is a per-core low-dropout regulator (recent AMD parts; the
	// paper's first mitigation). Sub-microsecond transitions.
	LDO
)

func (k Kind) String() string {
	switch k {
	case MBVR:
		return "MBVR"
	case FIVR:
		return "FIVR"
	case LDO:
		return "LDO"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes a regulator instance.
type Config struct {
	Kind Kind
	// SlewUp is the voltage ramp rate when increasing voltage, in volts
	// per second (e.g. 1 mV/µs = 1000 V/s).
	SlewUp units.Volt
	// SlewDown is the ramp rate when decreasing voltage, in volts/second.
	SlewDown units.Volt
	// CmdLatency is the fixed latency between issuing a set-voltage
	// command (e.g. over SVID) and the ramp beginning.
	CmdLatency units.Duration
	// VMin and VMax bound the commandable output voltage.
	VMin, VMax units.Volt
}

// Validate checks configuration invariants.
func (c Config) Validate() error {
	if c.SlewUp <= 0 || c.SlewDown <= 0 {
		return fmt.Errorf("pdn: non-positive slew rate (up=%v down=%v)", c.SlewUp, c.SlewDown)
	}
	if c.CmdLatency < 0 {
		return fmt.Errorf("pdn: negative command latency %v", c.CmdLatency)
	}
	if c.VMin <= 0 || c.VMax <= c.VMin {
		return fmt.Errorf("pdn: invalid voltage bounds [%v, %v]", c.VMin, c.VMax)
	}
	return nil
}

// DefaultConfig returns representative parameters for a regulator kind,
// calibrated so the resulting throttling periods match the paper's
// measurements (Fig. 8(a): Haswell/FIVR ≈ 9 µs, Coffee Lake ≈ 12 µs,
// Cannon Lake ≈ 14 µs for an AVX2 step; LDO < 0.5 µs, §7).
func DefaultConfig(k Kind) Config {
	switch k {
	case FIVR:
		return Config{
			Kind:       FIVR,
			SlewUp:     units.Volt(2500), // 2.5 mV/µs
			SlewDown:   units.Volt(5000),
			CmdLatency: 500 * units.Nanosecond,
			VMin:       0.55,
			VMax:       1.52,
		}
	case LDO:
		return Config{
			Kind:       LDO,
			SlewUp:     units.Volt(60000), // 60 mV/µs → <0.5 µs guardband steps
			SlewDown:   units.Volt(60000),
			CmdLatency: 50 * units.Nanosecond,
			VMin:       0.55,
			VMax:       1.5,
		}
	default: // MBVR
		return Config{
			Kind:       MBVR,
			SlewUp:     units.Volt(1000), // 1 mV/µs
			SlewDown:   units.Volt(2000),
			CmdLatency: 1500 * units.Nanosecond,
			VMin:       0.55,
			VMax:       1.52,
		}
	}
}

// Regulator is a voltage regulator with linear slew-rate ramping. It keeps
// at most one ramp in flight; the PMU is responsible for serializing
// transition requests (that serialization is the root cause of
// Multi-Throttling-Cores, so it lives in the PMU where the paper places it).
type Regulator struct {
	cfg Config

	// Ramp state: between rampStart and rampEnd the output moves linearly
	// from startV to targetV; outside a ramp the output is targetV.
	startV    units.Volt
	targetV   units.Volt
	rampStart units.Time // when the voltage begins moving (after CmdLatency)
	rampEnd   units.Time
}

// Reset settles the regulator at v0 under a (possibly updated)
// configuration. It is the only code that sets a regulator's state: the
// PMU calls it on a new(Regulator), and a pooled machine calls it in
// place to avoid rebuilding its power-delivery network.
func (r *Regulator) Reset(cfg Config, v0 units.Volt) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if v0 < cfg.VMin || v0 > cfg.VMax {
		return fmt.Errorf("pdn: initial voltage %v outside [%v, %v]", v0, cfg.VMin, cfg.VMax)
	}
	*r = Regulator{cfg: cfg, startV: v0, targetV: v0}
	return nil
}

// Config returns the regulator's configuration.
func (r *Regulator) Config() Config { return r.cfg }

// Voltage returns the instantaneous output voltage at time now.
func (r *Regulator) Voltage(now units.Time) units.Volt {
	switch {
	case now <= r.rampStart:
		return r.startV
	case now >= r.rampEnd:
		return r.targetV
	default:
		frac := float64(now-r.rampStart) / float64(r.rampEnd-r.rampStart)
		return r.startV + units.Volt(frac)*(r.targetV-r.startV)
	}
}

// Target returns the voltage the regulator is settling toward.
func (r *Regulator) Target() units.Volt { return r.targetV }

// Settled reports whether the output has reached the target at time now.
func (r *Regulator) Settled(now units.Time) bool { return now >= r.rampEnd }

// SettleTime returns when the in-flight ramp (if any) completes.
func (r *Regulator) SettleTime() units.Time { return r.rampEnd }

// SetTarget commands a new output voltage at time now and returns the time
// at which the output will settle at the target. Commanding a new target
// mid-ramp re-bases the ramp from the instantaneous output voltage (the
// regulator does not snap). Targets are clamped to [VMin, VMax]; use
// TransitionTime to plan without issuing.
func (r *Regulator) SetTarget(now units.Time, v units.Volt) units.Time {
	if v < r.cfg.VMin {
		v = r.cfg.VMin
	}
	if v > r.cfg.VMax {
		v = r.cfg.VMax
	}
	cur := r.Voltage(now)
	r.startV = cur
	r.targetV = v
	r.rampStart = now.Add(r.cfg.CmdLatency)
	r.rampEnd = r.rampStart.Add(r.rampDuration(cur, v))
	return r.rampEnd
}

func (r *Regulator) rampDuration(from, to units.Volt) units.Duration {
	dv := float64(to - from)
	if dv == 0 {
		return 0
	}
	slew := float64(r.cfg.SlewUp)
	if dv < 0 {
		dv = -dv
		slew = float64(r.cfg.SlewDown)
	}
	return units.FromSeconds(dv / slew)
}

// TransitionTime returns how long a transition from the instantaneous
// voltage at now to v would take (command latency + ramp), without
// commanding it.
func (r *Regulator) TransitionTime(now units.Time, v units.Volt) units.Duration {
	return r.cfg.CmdLatency + r.rampDuration(r.Voltage(now), v)
}
