// Package units defines the physical quantities used throughout the
// simulator: simulated time (picosecond resolution), voltage, current,
// power, temperature, and frequency.
//
// Simulated time is an int64 count of picoseconds. One picosecond of
// resolution comfortably resolves a single cycle at any realistic clock
// frequency (a 5 GHz cycle is 200 ps) while an int64 still spans over 100
// days of simulated time. Electrical quantities are float64 in SI units.
package units

import (
	"fmt"
	"math"
)

// Time is an absolute simulation timestamp in picoseconds since the start
// of the simulation.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Duration constants.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Add returns the timestamp d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts an absolute timestamp to seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds converts an absolute timestamp to microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string { return Duration(t).String() }

// Seconds converts a duration to seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds converts a duration to microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Nanoseconds converts a duration to nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// String renders the duration with an auto-selected unit.
func (d Duration) String() string {
	abs := d
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case abs >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case abs >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Microseconds())
	case abs >= Nanosecond:
		return fmt.Sprintf("%.3fns", d.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(d))
	}
}

// FromSeconds converts seconds to a Duration, saturating on overflow.
func FromSeconds(s float64) Duration {
	ps := s * float64(Second)
	if ps >= math.MaxInt64 {
		return Duration(math.MaxInt64)
	}
	if ps <= math.MinInt64 {
		return Duration(math.MinInt64)
	}
	return Duration(ps)
}

// Volt is an electric potential in volts.
type Volt float64

// Millivolts returns the voltage expressed in millivolts.
func (v Volt) Millivolts() float64 { return float64(v) * 1000 }

// MV constructs a voltage from millivolts.
func MV(mv float64) Volt { return Volt(mv / 1000) }

func (v Volt) String() string { return fmt.Sprintf("%.4gV", float64(v)) }

// Ampere is an electric current in amperes.
type Ampere float64

func (a Ampere) String() string { return fmt.Sprintf("%.4gA", float64(a)) }

// Ohm is an electrical resistance in ohms.
type Ohm float64

// MilliOhm constructs a resistance from milliohms.
func MilliOhm(mo float64) Ohm { return Ohm(mo / 1000) }

// Watt is power in watts.
type Watt float64

func (w Watt) String() string { return fmt.Sprintf("%.4gW", float64(w)) }

// Celsius is a temperature in degrees Celsius.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// Hertz is a frequency in hertz.
type Hertz float64

// Frequency constants.
const (
	KHz Hertz = 1e3
	MHz Hertz = 1e6
	GHz Hertz = 1e9
)

// GHzF returns the frequency expressed in gigahertz.
func (h Hertz) GHzF() float64 { return float64(h) / 1e9 }

func (h Hertz) String() string {
	switch {
	case h >= GHz:
		return fmt.Sprintf("%.3gGHz", float64(h)/1e9)
	case h >= MHz:
		return fmt.Sprintf("%.3gMHz", float64(h)/1e6)
	case h >= KHz:
		return fmt.Sprintf("%.3gkHz", float64(h)/1e3)
	default:
		return fmt.Sprintf("%.3gHz", float64(h))
	}
}

// Period returns the duration of one cycle at frequency h.
// It panics if h is not positive: a clocked component cannot run at zero
// or negative frequency.
func (h Hertz) Period() Duration {
	if h <= 0 {
		panic(fmt.Sprintf("units: non-positive frequency %v has no period", float64(h)))
	}
	return Duration(math.Round(float64(Second) / float64(h)))
}

// Cycles returns how many whole cycles at frequency h fit in d.
func (h Hertz) Cycles(d Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64(float64(d) / float64(Second) * float64(h))
}

// DurationOf returns the time that n cycles take at frequency h.
func (h Hertz) DurationOf(n float64) Duration {
	if h <= 0 {
		panic(fmt.Sprintf("units: non-positive frequency %v", float64(h)))
	}
	return Duration(math.Ceil(n / float64(h) * float64(Second)))
}
