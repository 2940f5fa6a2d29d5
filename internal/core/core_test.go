package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"ichannels/internal/isa"
	"ichannels/internal/model"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

func newQuietMachine(t *testing.T, seed int64) *soc.Machine {
	t.Helper()
	m, err := soc.New(soc.Options{
		Processor:     model.CannonLake8121U(),
		RequestedFreq: 2.2 * units.GHz,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSymbolMappingMatchesPaperFig3(t *testing.T) {
	// Fig. 3: 00→128b_Heavy(L4), 01→256b_Light(L3), 10→256b_Heavy(L2),
	// 11→512b_Heavy(L1).
	want := map[Symbol]isa.Class{
		0: isa.Vec128Heavy, 1: isa.Vec256Light, 2: isa.Vec256Heavy, 3: isa.Vec512Heavy,
	}
	levels := map[Symbol]string{0: "L4", 1: "L3", 2: "L2", 3: "L1"}
	for s, cls := range want {
		if s.Class() != cls {
			t.Errorf("symbol %d → %v, want %v", int(s), s.Class(), cls)
		}
		if s.Level() != levels[s] {
			t.Errorf("symbol %d level %s, want %s", int(s), s.Level(), levels[s])
		}
		if s.Kernel().Class != cls {
			t.Errorf("symbol %d kernel class mismatch", int(s))
		}
	}
}

func TestSymbolBitsRoundTrip(t *testing.T) {
	f := func(raw uint8) bool {
		s := Symbol(raw % NumSymbols)
		hi, lo := s.Bits()
		return SymbolFromBits(hi, lo) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolsFromBitsRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]int, (len(raw)/2)*2)
		for i := range bits {
			bits[i] = int(raw[i]) & 1
		}
		syms, err := SymbolsFromBits(bits)
		if err != nil {
			return false
		}
		back := BitsFromSymbols(syms)
		if len(back) != len(bits) {
			return false
		}
		for i := range bits {
			if back[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSymbolsFromBitsValidation(t *testing.T) {
	if _, err := SymbolsFromBits([]int{1}); err == nil {
		t.Fatal("odd length accepted")
	}
	if _, err := SymbolsFromBits([]int{1, 2}); err == nil {
		t.Fatal("non-bit accepted")
	}
}

func TestReceiverKernels(t *testing.T) {
	// Fig. 3: 512b_Heavy on same thread, 64b across SMT, 128b_Heavy
	// across cores.
	if SameThread.ReceiverKernel().Class != isa.Vec512Heavy {
		t.Error("same-thread receiver must run 512b_Heavy")
	}
	if SMT.ReceiverKernel().Class != isa.Scalar64 {
		t.Error("SMT receiver must run 64b")
	}
	if CrossCore.ReceiverKernel().Class != isa.Vec128Heavy {
		t.Error("cross-core receiver must run 128b_Heavy")
	}
}

func TestKindProperties(t *testing.T) {
	if SameThread.Ascending() {
		t.Error("same-thread measure decreases with symbol intensity")
	}
	if !SMT.Ascending() || !CrossCore.Ascending() {
		t.Error("SMT and cross-core measures increase with symbol intensity")
	}
	names := map[Kind]string{SameThread: "IccThreadCovert", SMT: "IccSMTcovert", CrossCore: "IccCoresCovert"}
	for k, n := range names {
		if k.String() != n {
			t.Errorf("%d name %q", int(k), k.String())
		}
	}
}

func TestParamsValidation(t *testing.T) {
	p := model.CannonLake8121U()
	for _, kind := range []Kind{SameThread, SMT, CrossCore} {
		pr := DefaultParams(kind, p)
		if err := pr.Validate(2, 2); err != nil {
			t.Errorf("%v default params invalid: %v", kind, err)
		}
	}
	// SMT channel on a non-SMT machine must be rejected.
	smt := DefaultParams(SMT, p)
	if smt.Validate(2, 1) == nil {
		t.Error("SMT channel on non-SMT machine accepted")
	}
	// Cross-core on one core must be rejected.
	cc := DefaultParams(CrossCore, p)
	if cc.Validate(1, 2) == nil {
		t.Error("cross-core channel on one core accepted")
	}
	// Same-thread with split placement must be rejected.
	st := DefaultParams(SameThread, p)
	st.ReceiverCore = 1
	if st.Validate(2, 2) == nil {
		t.Error("same-thread split placement accepted")
	}
	bad := DefaultParams(SameThread, p)
	bad.SlotPeriod = 0
	if bad.Validate(2, 2) == nil {
		t.Error("zero slot period accepted")
	}
}

func TestSlotPeriodCoversResetTime(t *testing.T) {
	p := model.CannonLake8121U()
	for _, kind := range []Kind{SameThread, SMT, CrossCore} {
		pr := DefaultParams(kind, p)
		if pr.SlotPeriod <= p.LicenseHysteresis {
			t.Errorf("%v slot %v must exceed the 650µs reset-time", kind, pr.SlotPeriod)
		}
	}
}

func TestCalibrationDecode(t *testing.T) {
	groups := [NumSymbols][]float64{
		{100, 110}, {200, 210}, {300, 310}, {400, 410},
	}
	cal, err := NewCalibration(groups)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < NumSymbols; s++ {
		if got := cal.Decode(groups[s][0] + 5); got != Symbol(s) {
			t.Errorf("decode(%g) = %v, want %v", groups[s][0]+5, got, Symbol(s))
		}
	}
	if !cal.Separable(50) {
		t.Error("clearly separated calibration not separable")
	}
	if cal.Separable(200) {
		t.Error("gap requirement ignored")
	}
}

func TestCalibrationDescendingMapping(t *testing.T) {
	// Same-thread ordering: higher symbol → smaller measure. Decode must
	// invert correctly.
	groups := [NumSymbols][]float64{
		{400, 410}, {300, 310}, {200, 210}, {100, 110},
	}
	cal, err := NewCalibration(groups)
	if err != nil {
		t.Fatal(err)
	}
	if got := cal.Decode(105); got != Symbol(3) {
		t.Fatalf("decode(105) = %v, want symbol 3", got)
	}
	if got := cal.Decode(405); got != Symbol(0) {
		t.Fatalf("decode(405) = %v, want symbol 0", got)
	}
}

func TestCalibrationRejectsDegenerate(t *testing.T) {
	var groups [NumSymbols][]float64
	for i := range groups {
		groups[i] = []float64{100} // identical means
	}
	if _, err := NewCalibration(groups); err == nil {
		t.Fatal("identical clusters accepted")
	}
	groups[0] = nil
	if _, err := NewCalibration(groups); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestChannelEndToEnd(t *testing.T) {
	for _, kind := range []Kind{SameThread, SMT, CrossCore} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			proc := model.CannonLake8121U()
			m := newQuietMachine(t, 3)
			ch, err := New(m, DefaultParams(kind, proc))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ch.Calibrate(6); err != nil {
				t.Fatal(err)
			}
			cal := ch.Calibration()
			// Fig. 13 property: levels separated by > 2000 cycles.
			if !cal.Separable(2000) {
				t.Fatalf("levels not separable by 2K cycles (gap %.0f)", cal.Gap)
			}
			rng := rand.New(rand.NewSource(9))
			bits := make([]int, 64)
			for i := range bits {
				bits[i] = rng.Intn(2)
			}
			res, err := ch.Transmit(bits)
			if err != nil {
				t.Fatal(err)
			}
			if res.BER != 0 {
				t.Fatalf("noise-free BER = %g", res.BER)
			}
			// §6.2: ≈2.9 kb/s channel capacity (model ≈2.8 kb/s).
			if res.ThroughputBPS < 2600 || res.ThroughputBPS > 3000 {
				t.Fatalf("throughput %.0f b/s outside the paper's band", res.ThroughputBPS)
			}
		})
	}
}

func TestSameThreadMeasureDescending(t *testing.T) {
	proc := model.CannonLake8121U()
	m := newQuietMachine(t, 4)
	ch, err := New(m, DefaultParams(SameThread, proc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Calibrate(4); err != nil {
		t.Fatal(err)
	}
	cal := ch.Calibration()
	// Multi-Throttling-Thread: the more intense the sent symbol, the
	// *less* voltage remains for the receiver's 512b_Heavy loop.
	for s := 1; s < NumSymbols; s++ {
		if cal.MeanCycles[s] >= cal.MeanCycles[s-1] {
			t.Fatalf("same-thread means not descending: %v", cal.MeanCycles)
		}
	}
}

func TestSMTAndCrossCoreMeasureAscending(t *testing.T) {
	proc := model.CannonLake8121U()
	for _, kind := range []Kind{SMT, CrossCore} {
		m := newQuietMachine(t, 5)
		ch, err := New(m, DefaultParams(kind, proc))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ch.Calibrate(4); err != nil {
			t.Fatal(err)
		}
		cal := ch.Calibration()
		for s := 1; s < NumSymbols; s++ {
			if cal.MeanCycles[s] <= cal.MeanCycles[s-1] {
				t.Fatalf("%v means not ascending: %v", kind, cal.MeanCycles)
			}
		}
	}
}

func TestTransmitRequiresCalibration(t *testing.T) {
	proc := model.CannonLake8121U()
	m := newQuietMachine(t, 6)
	ch, err := New(m, DefaultParams(CrossCore, proc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Transmit([]int{0, 1}); err == nil {
		t.Fatal("uncalibrated transmit accepted")
	}
}

func TestRunSymbolsValidation(t *testing.T) {
	proc := model.CannonLake8121U()
	m := newQuietMachine(t, 6)
	ch, err := New(m, DefaultParams(SameThread, proc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.RunSymbols(nil); err == nil {
		t.Fatal("empty schedule accepted")
	}
	if _, err := ch.RunSymbols([]Symbol{Symbol(7)}); err == nil {
		t.Fatal("invalid symbol accepted")
	}
}

func TestBackToBackTransmissions(t *testing.T) {
	// The reset-time pacing must let a second transmission reuse the
	// machine with identical fidelity.
	proc := model.CannonLake8121U()
	m := newQuietMachine(t, 8)
	ch, err := New(m, DefaultParams(SameThread, proc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Calibrate(4); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		res, err := ch.Transmit([]int{1, 0, 0, 1, 1, 1, 0, 0})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.BER != 0 {
			t.Fatalf("round %d BER %g", round, res.BER)
		}
	}
}

func TestSpyAccuracy(t *testing.T) {
	for _, kind := range []Kind{SMT, CrossCore} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			m := newQuietMachine(t, 10)
			spy, err := NewSpy(m, kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := spy.Calibrate(4); err != nil {
				t.Fatal(err)
			}
			victim := []isa.Class{
				isa.Scalar64, isa.Vec512Heavy, isa.Vec128Heavy, isa.Vec256Heavy,
				isa.Vec512Heavy, isa.Scalar64, isa.Vec256Heavy, isa.Vec128Heavy,
			}
			res, err := spy.Infer(victim)
			if err != nil {
				t.Fatal(err)
			}
			if res.Accuracy < 0.99 {
				t.Fatalf("%v spy accuracy %.2f", kind, res.Accuracy)
			}
		})
	}
}

func TestSpyValidation(t *testing.T) {
	m := newQuietMachine(t, 11)
	if _, err := NewSpy(m, SameThread); err == nil {
		t.Fatal("same-thread spy makes no sense and must be rejected")
	}
	spy, err := NewSpy(m, SMT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spy.Infer([]isa.Class{isa.Scalar64}); err == nil {
		t.Fatal("uncalibrated inference accepted")
	}
	if err := spy.Calibrate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := spy.Infer([]isa.Class{isa.Vec512Light}); err == nil {
		t.Fatal("non-calibrated width accepted")
	}
}

// TestResultsOutliveLaterRuns checks that what a channel returns does
// not alias the working memory channel runs keep on their machine: a
// transmission, its calibration and a RunSymbols reading stay as they
// were while other channels calibrate and transmit on the same machine.
func TestResultsOutliveLaterRuns(t *testing.T) {
	proc := model.CannonLake8121U()
	m := newQuietMachine(t, 5)
	first, err := New(m, DefaultParams(SameThread, proc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Calibrate(6); err != nil {
		t.Fatal(err)
	}
	res, err := first.Transmit([]int{1, 0, 0, 1, 1, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	readings, err := first.RunSymbols([]Symbol{0, 3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cal := first.Calibration()
	want := *res
	want.Sent, want.Decoded, want.Measures = slices.Clone(res.Sent), slices.Clone(res.Decoded), slices.Clone(res.Measures)
	want.SentBits, want.DecodedBits = slices.Clone(res.SentBits), slices.Clone(res.DecodedBits)
	wantCal := *cal
	wantCal.Thresholds = slices.Clone(cal.Thresholds)
	wantReadings := slices.Clone(readings)

	for _, kind := range []Kind{SameThread, SMT, CrossCore} {
		ch, err := New(m, DefaultParams(kind, proc))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ch.Calibrate(4); err != nil {
			t.Fatal(err)
		}
		if _, err := ch.Transmit([]int{0, 1, 1, 0, 0, 0, 1, 1, 1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(*res, want) {
		t.Errorf("transmission changed by later runs:\n%+v\nwant\n%+v", *res, want)
	}
	if !reflect.DeepEqual(*cal, wantCal) {
		t.Errorf("calibration changed by later runs:\n%+v\nwant\n%+v", *cal, wantCal)
	}
	if !slices.Equal(readings, wantReadings) {
		t.Errorf("RunSymbols readings changed by later runs: %v, want %v", readings, wantReadings)
	}
}
