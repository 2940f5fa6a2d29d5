package core

import (
	"fmt"

	"ichannels/internal/isa"
	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// Spy turns the Multi-Throttling-SMT and Multi-Throttling-Cores
// side-effects into a *side* channel (paper §6.5): without any cooperating
// sender, an attacker co-located with a victim infers the operand width of
// the instructions the victim is executing (64/128/256/512-bit) from the
// throttling period the attacker itself experiences.
type Spy struct {
	m *soc.Machine
	// Kind must be SMT or CrossCore (a victim does not time-share its
	// own thread with the attacker).
	Kind Kind
	// Window is the observation window per classification.
	Window units.Duration
	// MeasureIters sizes the spy's probe loop.
	MeasureIters int64
	// VictimCore/VictimSlot and SpyCore/SpySlot place the two parties.
	VictimCore, VictimSlot int
	SpyCore, SpySlot       int

	// means[w] is the calibrated measurement for width class w.
	means []float64
	// widths are the distinguishable victim classes.
	widths []isa.Class
}

// VictimWidths returns the instruction classes the spy distinguishes:
// the heavy kernel of each operand width (paper §6.5 names the widths).
func VictimWidths() []isa.Class {
	return []isa.Class{isa.Scalar64, isa.Vec128Heavy, isa.Vec256Heavy, isa.Vec512Heavy}
}

// NewSpy builds a side-channel observer.
func NewSpy(m *soc.Machine, kind Kind) (*Spy, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil machine")
	}
	s := &Spy{
		m:            m,
		Kind:         kind,
		Window:       m.Proc.LicenseHysteresis + 60*units.Microsecond,
		MeasureIters: 160,
		widths:       VictimWidths(),
	}
	switch kind {
	case SMT:
		if m.Proc.SMTWays < 2 {
			return nil, fmt.Errorf("core: SMT spy needs an SMT processor")
		}
		s.SpySlot = 1
	case CrossCore:
		if len(m.Cores) < 2 {
			return nil, fmt.Errorf("core: cross-core spy needs two cores")
		}
		s.SpyCore = 1
		s.MeasureIters = 150
	default:
		return nil, fmt.Errorf("core: spy kind must be SMT or CrossCore, got %v", kind)
	}
	return s, nil
}

// observe runs the spy against a victim executing the given class
// sequence and returns the spy's per-window measurements. Each window the
// victim runs its class's kernel from the window boundary while the spy
// times its probe loop (+2 µs for the cross-core variant, so the victim's
// ramp is in flight).
func (s *Spy) observe(classes []isa.Class) ([]float64, error) {
	slots := Slots{Base: s.m.Now().Add(20 * units.Microsecond), Period: s.Window, N: len(classes)}
	victim := &SlotSender{Label: "victim", Slots: slots, Send: func(k int) (soc.Action, bool) {
		return soc.Exec(isa.KernelFor(classes[k]), 64), true
	}}
	probe := &SlotReceiver{Label: "spy", Slots: slots, Kernel: isa.Loop64b, Iters: s.MeasureIters}
	if s.Kind == CrossCore {
		probe.Offset, probe.Kernel = 2*units.Microsecond, isa.Loop128Heavy
	}
	return RunSlots(s.m, slots, 100*units.Microsecond, &probe.Measures,
		Placed{Core: s.VictimCore, Slot: s.VictimSlot, Agent: victim},
		Placed{Core: s.SpyCore, Slot: s.SpySlot, Agent: probe})
}

// Calibrate teaches the spy the measurement signature of each victim
// width using a training victim under the attacker's control.
func (s *Spy) Calibrate(perWidth int) error {
	if perWidth <= 0 {
		return fmt.Errorf("core: perWidth must be positive")
	}
	classes := make([]isa.Class, 0, perWidth*len(s.widths))
	for i := 0; i < perWidth; i++ {
		classes = append(classes, s.widths...)
	}
	measures, err := s.observe(classes)
	if err != nil {
		return err
	}
	sums := make([]float64, len(s.widths))
	counts := make([]int, len(s.widths))
	for i, m := range measures {
		w := i % len(s.widths)
		sums[w] += m
		counts[w]++
	}
	s.means = make([]float64, len(s.widths))
	for i := range sums {
		s.means[i] = sums[i] / float64(counts[i])
	}
	return nil
}

// InferenceResult reports a side-channel observation run.
type InferenceResult struct {
	Actual   []isa.Class
	Inferred []isa.Class
	Accuracy float64
	// Confusion[a][p] counts windows with actual width index a inferred
	// as width index p.
	Confusion [][]int
}

// Infer observes a victim running the given class sequence (one class per
// window) and classifies each window by nearest calibrated mean.
func (s *Spy) Infer(classes []isa.Class) (*InferenceResult, error) {
	if s.means == nil {
		return nil, fmt.Errorf("core: spy not calibrated")
	}
	for _, c := range classes {
		if s.widthIndex(c) < 0 {
			return nil, fmt.Errorf("core: class %v is not a calibrated victim width", c)
		}
	}
	measures, err := s.observe(classes)
	if err != nil {
		return nil, err
	}
	res := &InferenceResult{
		Actual:    classes,
		Inferred:  make([]isa.Class, 0, len(classes)),
		Confusion: make([][]int, len(s.widths)),
	}
	for i := range res.Confusion {
		res.Confusion[i] = make([]int, len(s.widths))
	}
	correct := 0
	for i, m := range measures {
		best, bestD := 0, -1.0
		for w, mean := range s.means {
			d := m - mean
			if d < 0 {
				d = -d
			}
			if bestD < 0 || d < bestD {
				best, bestD = w, d
			}
		}
		res.Inferred = append(res.Inferred, s.widths[best])
		ai := s.widthIndex(classes[i])
		res.Confusion[ai][best]++
		if s.widths[best] == classes[i] {
			correct++
		}
	}
	res.Accuracy = float64(correct) / float64(len(classes))
	return res, nil
}

func (s *Spy) widthIndex(c isa.Class) int {
	for i, w := range s.widths {
		if w == c {
			return i
		}
	}
	return -1
}
