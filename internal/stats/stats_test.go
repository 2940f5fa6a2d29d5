package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary %+v", s)
	}
	want := math.Sqrt(2.5)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std %g, want %g", s.Std, want)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary")
	}
	one := Summarize([]float64{7})
	if one.Std != 0 || one.Mean != 7 {
		t.Fatalf("single-sample summary %+v", one)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if Percentile(xs, 0) != 10 || Percentile(xs, 100) != 40 {
		t.Fatal("extremes wrong")
	}
	if got := Percentile(xs, 50); got != 25 {
		t.Fatalf("P50 = %g", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []uint8, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		sort.Float64s(xs)
		a, b := float64(aRaw%101), float64(bRaw%101)
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(xs, a), Percentile(xs, b)
		return pa <= pb && pa >= xs[0] && pb <= xs[len(xs)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeparable(t *testing.T) {
	a := []float64{10, 11, 12}
	b := []float64{20, 21, 22}
	c := []float64{30, 31, 32}
	if !Separable([][]float64{a, b, c}, 5) {
		t.Fatal("clearly separated groups rejected")
	}
	if Separable([][]float64{a, b, c}, 9) {
		t.Fatal("gap requirement ignored")
	}
	if Separable([][]float64{a, {11.5, 21}}, 1) {
		t.Fatal("overlapping groups accepted")
	}
	if Separable([][]float64{a, nil}, 1) {
		t.Fatal("empty group accepted")
	}
	// Order must not matter.
	if !Separable([][]float64{c, a, b}, 5) {
		t.Fatal("separability must be order-independent")
	}
}

func TestBitErrorsAndBER(t *testing.T) {
	if BitErrors([]int{0, 1, 1, 0}, []int{0, 1, 0, 1}) != 2 {
		t.Fatal("BitErrors wrong")
	}
	if BER([]int{0, 1, 1, 0}, []int{0, 1, 0, 1}) != 0.5 {
		t.Fatal("BER wrong")
	}
	if BER(nil, nil) != 0 {
		t.Fatal("empty BER")
	}
}

func TestBitErrorsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BitErrors([]int{1}, []int{1, 0})
}

// Property: Summarize bounds hold for arbitrary inputs.
func TestPropertySummaryBounds(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		return s.Min <= s.P25 && s.P25 <= s.P50 && s.P50 <= s.P75 && s.P75 <= s.Max &&
			s.Mean >= s.Min && s.Mean <= s.Max && s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
