package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDurationConstants(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatalf("Nanosecond = %d ps", int64(Nanosecond))
	}
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps", int64(Second))
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Microsecond)
	if t1.Sub(t0) != 5*Microsecond {
		t.Fatalf("Sub = %v", t1.Sub(t0))
	}
	if got := t1.Microseconds(); got != 5 {
		t.Fatalf("Microseconds = %g", got)
	}
	if got := Time(2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds = %g", got)
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(us uint32) bool {
		d := Duration(us) * Microsecond
		back := FromSeconds(d.Seconds())
		diff := back - d
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1 // ≤1 ps rounding
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromSecondsSaturates(t *testing.T) {
	if FromSeconds(1e30) != Duration(math.MaxInt64) {
		t.Fatal("positive overflow must saturate")
	}
	if FromSeconds(-1e30) != Duration(math.MinInt64) {
		t.Fatal("negative overflow must saturate")
	}
}

// TestFromMicroAndNano: FromSeconds lands sub-millisecond float inputs
// on exact picosecond counts.
func TestFromMicroAndNano(t *testing.T) {
	if FromSeconds(1.5e-6) != 1500*Nanosecond {
		t.Fatalf("FromSeconds(1.5e-6) = %v", FromSeconds(1.5e-6))
	}
	if FromSeconds(2e-9) != 2*Nanosecond {
		t.Fatalf("FromSeconds(2e-9) = %v", FromSeconds(2e-9))
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d ps → %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestVoltage(t *testing.T) {
	if MV(850) != Volt(0.85) {
		t.Fatalf("MV(850) = %v", MV(850))
	}
	if got := Volt(1.2).Millivolts(); got != 1200 {
		t.Fatalf("Millivolts = %g", got)
	}
}

func TestHertzPeriod(t *testing.T) {
	if got := (1 * GHz).Period(); got != Nanosecond {
		t.Fatalf("1GHz period = %v", got)
	}
	if got := (2 * GHz).Period(); got != 500*Picosecond {
		t.Fatalf("2GHz period = %v", got)
	}
}

func TestHertzPeriodPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero frequency")
		}
	}()
	Hertz(0).Period()
}

func TestHertzCycles(t *testing.T) {
	if got := (1 * GHz).Cycles(1 * Microsecond); got != 1000 {
		t.Fatalf("cycles = %d", got)
	}
	if got := (3 * GHz).Cycles(-1); got != 0 {
		t.Fatalf("negative duration cycles = %d", got)
	}
}

func TestHertzDurationOf(t *testing.T) {
	if got := (1 * GHz).DurationOf(1000); got != Microsecond {
		t.Fatalf("DurationOf = %v", got)
	}
}

func TestDurationOfCyclesInverse(t *testing.T) {
	f := func(n uint16) bool {
		h := 2 * GHz
		d := h.DurationOf(float64(n) + 1)
		// DurationOf ceils, so Cycles must return at least n+1 cycles
		// minus rounding of 1.
		c := h.Cycles(d)
		return c >= int64(n) && c <= int64(n)+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHertzString(t *testing.T) {
	if got := (3 * GHz).String(); got != "3GHz" {
		t.Fatalf("String = %q", got)
	}
	if got := (200 * MHz).String(); got != "200MHz" {
		t.Fatalf("String = %q", got)
	}
	if got := (5 * KHz).String(); got != "5kHz" {
		t.Fatalf("String = %q", got)
	}
}

func TestGHzF(t *testing.T) {
	if got := (2200 * MHz).GHzF(); math.Abs(got-2.2) > 1e-12 {
		t.Fatalf("GHzF = %g", got)
	}
}
