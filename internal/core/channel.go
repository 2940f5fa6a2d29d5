package core

import (
	"fmt"

	"ichannels/internal/soc"
	"ichannels/internal/stats"
	"ichannels/internal/units"
)

// Channel is one configured IChannels covert channel on a machine.
type Channel struct {
	m   *soc.Machine
	p   Params
	cal *Calibration
}

// New validates the placement against the machine and returns a channel.
func New(m *soc.Machine, p Params) (*Channel, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil machine")
	}
	if err := p.Validate(len(m.Cores), m.Proc.SMTWays); err != nil {
		return nil, err
	}
	return &Channel{m: m, p: p}, nil
}

// Params returns the channel's transaction parameters.
func (c *Channel) Params() Params { return c.p }

// Calibration returns the current calibration (nil before Calibrate).
func (c *Channel) Calibration() *Calibration { return c.cal }

// SetCalibration installs an externally learned calibration (used by the
// mitigation study to reuse a baseline calibration).
func (c *Channel) SetCalibration(cal *Calibration) { c.cal = cal }

// slotStart returns the absolute start time of transaction slot k for a
// run whose first slot begins at base.
func (c *Channel) slotStart(base units.Time, k int) units.Time {
	return base.Add(units.Duration(k) * c.p.SlotPeriod)
}

// senderPhase tracks the sender agent's position in the slot cycle.
type senderPhase int

const (
	sWaitSlot senderPhase = iota
	sSending
)

// senderAgent transmits one symbol per slot: busy-wait to the slot
// boundary (wall-clock sync, paper §4.3.3), then run the symbol's PHI loop.
type senderAgent struct {
	ch       *Channel
	base     units.Time
	schedule []Symbol
	idx      int
	phase    senderPhase
}

func (s *senderAgent) Name() string { return "ichannels.sender" }

func (s *senderAgent) Next(env *soc.Env, prev *soc.Result) soc.Action {
	switch s.phase {
	case sWaitSlot:
		if s.idx >= len(s.schedule) {
			return soc.Stop()
		}
		s.phase = sSending
		return soc.SpinUntil(s.ch.slotStart(s.base, s.idx))
	case sSending:
		sym := s.schedule[s.idx]
		s.idx++
		s.phase = sWaitSlot
		return soc.Exec(sym.Kernel(), s.ch.p.SenderIters)
	default:
		panic("core: sender agent in invalid phase")
	}
}

// receiverPhase tracks the receiver agent's position in the slot cycle.
type receiverPhase int

const (
	rWaitSlot receiverPhase = iota
	rMeasuring
)

// receiverAgent measures one throttling period per slot: busy-wait to the
// slot boundary (plus offset), run the kind's measurement loop, record its
// rdtsc-elapsed cycles.
type receiverAgent struct {
	ch       *Channel
	base     units.Time
	slots    int
	idx      int
	phase    receiverPhase
	measures []int64
}

func (r *receiverAgent) Name() string { return "ichannels.receiver" }

func (r *receiverAgent) Next(env *soc.Env, prev *soc.Result) soc.Action {
	switch r.phase {
	case rWaitSlot:
		if prev != nil && prev.Action.Kind == soc.ActExec {
			// prev was the measurement loop: record its rdtsc reading.
			r.measures = append(r.measures, prev.ElapsedTSC())
		}
		if r.idx >= r.slots {
			return soc.Stop()
		}
		r.phase = rMeasuring
		return soc.SpinUntil(r.ch.slotStart(r.base, r.idx).Add(r.ch.p.ReceiverOffset))
	case rMeasuring:
		r.idx++
		r.phase = rWaitSlot
		return soc.Exec(r.ch.p.Kind.ReceiverKernel(), r.ch.p.ReceiverIters)
	default:
		panic("core: receiver agent in invalid phase")
	}
}

// sameThreadAgent interleaves sending and measuring on one hardware thread
// (IccThreadCovert): spin to slot start, run the symbol PHI loop, then run
// the 512b_Heavy measurement loop and record its elapsed cycles.
type sameThreadAgent struct {
	ch       *Channel
	base     units.Time
	schedule []Symbol
	idx      int
	phase    int // 0 wait, 1 sending, 2 measuring
	measures []int64
}

func (a *sameThreadAgent) Name() string { return "ichannels.samethread" }

func (a *sameThreadAgent) Next(env *soc.Env, prev *soc.Result) soc.Action {
	switch a.phase {
	case 0:
		if prev != nil && prev.Action.Kind == soc.ActExec {
			// prev was the measurement loop: record its rdtsc reading.
			a.measures = append(a.measures, prev.ElapsedTSC())
		}
		if a.idx >= len(a.schedule) {
			return soc.Stop()
		}
		a.phase = 1
		return soc.SpinUntil(a.ch.slotStart(a.base, a.idx))
	case 1:
		sym := a.schedule[a.idx]
		a.phase = 2
		return soc.Exec(sym.Kernel(), a.ch.p.SenderIters)
	case 2:
		a.idx++
		a.phase = 0
		return soc.Exec(a.ch.p.Kind.ReceiverKernel(), a.ch.p.ReceiverIters)
	default:
		panic("core: same-thread agent in invalid phase")
	}
}

// RunSymbols performs one transaction per symbol in schedule and returns
// the receiver's raw measurements (TSC cycles), in slot order. This is
// the primitive under Calibrate and Transmit; experiments also use it
// directly (e.g. the Fig. 13 distributions).
func (c *Channel) RunSymbols(schedule []Symbol) ([]int64, error) {
	if len(schedule) == 0 {
		return nil, fmt.Errorf("core: empty schedule")
	}
	for _, s := range schedule {
		if !s.Valid() {
			return nil, fmt.Errorf("core: invalid symbol %d in schedule", int(s))
		}
	}
	// First slot starts shortly after "now" so both sides can reach
	// their spin loops.
	base := c.m.Now().Add(20 * units.Microsecond)

	// Measurement slices are sized up front: one reading per slot, so
	// the per-slot append in the agent hot path never reallocates.
	var measures *[]int64
	if c.p.Kind == SameThread {
		agent := &sameThreadAgent{ch: c, base: base, schedule: schedule,
			measures: make([]int64, 0, len(schedule))}
		if _, err := c.m.Bind(c.p.SenderCore, c.p.SenderSlot, agent); err != nil {
			return nil, err
		}
		measures = &agent.measures
	} else {
		snd := &senderAgent{ch: c, base: base, schedule: schedule}
		rcv := &receiverAgent{ch: c, base: base, slots: len(schedule),
			measures: make([]int64, 0, len(schedule))}
		if _, err := c.m.Bind(c.p.SenderCore, c.p.SenderSlot, snd); err != nil {
			return nil, err
		}
		if _, err := c.m.Bind(c.p.ReceiverCore, c.p.ReceiverSlot, rcv); err != nil {
			return nil, err
		}
		measures = &rcv.measures
	}
	// Advance to the end of the last slot plus a settling margin.
	c.m.RunUntil(c.slotStart(base, len(schedule)).Add(100 * units.Microsecond))
	if len(*measures) != len(schedule) {
		return nil, fmt.Errorf("core: expected %d measurements, got %d (simulation ended early?)",
			len(schedule), len(*measures))
	}
	return *measures, nil
}

// Calibrate learns the decision thresholds by transmitting a known
// round-robin symbol pattern perSymbol times each and clustering the
// receiver's measurements. It returns the calibration's cluster gap in
// cycles; Calibration exposes the full decision rule.
func (c *Channel) Calibrate(perSymbol int) (gap float64, err error) {
	if perSymbol <= 0 {
		return 0, fmt.Errorf("core: perSymbol must be positive")
	}
	schedule := make([]Symbol, 0, NumSymbols*perSymbol)
	for i := 0; i < perSymbol; i++ {
		for s := 0; s < NumSymbols; s++ {
			schedule = append(schedule, Symbol(s))
		}
	}
	measures, err := c.RunSymbols(schedule)
	if err != nil {
		return 0, err
	}
	var groups [NumSymbols][]float64
	for s := range groups {
		groups[s] = make([]float64, 0, perSymbol)
	}
	for i, m := range measures {
		s := schedule[i]
		groups[s] = append(groups[s], float64(m))
	}
	cal, err := NewCalibration(groups)
	if err != nil {
		return 0, err
	}
	c.cal = cal
	return cal.Gap, nil
}

// TransmitResult reports one covert transmission. It is the result type
// of every channel family: the paper's variants here, the
// internal/channels families and the internal/baselines channels.
type TransmitResult struct {
	// Sent/Decoded are the 2-bit symbol streams and Measures the
	// receiver's raw per-slot measurement in cycles (set by Channel
	// only; the other families decode one bit per slot).
	Sent     []Symbol
	Decoded  []Symbol
	Measures []int64
	// SentBits/DecodedBits are the flattened bit streams.
	SentBits, DecodedBits []int
	// Elapsed is the wall time of the whole transmission.
	Elapsed units.Duration
	// ThroughputBPS is raw bits transmitted per second of channel time.
	ThroughputBPS float64
	// BER is the bit error rate.
	BER float64
	// SymbolErrors counts wrongly decoded symbols (bits, for the
	// one-bit-per-slot families).
	SymbolErrors int
}

// Transmit sends a bit stream (even length) over the channel and decodes
// it with the current calibration.
func (c *Channel) Transmit(bits []int) (*TransmitResult, error) {
	if c.cal == nil {
		return nil, fmt.Errorf("core: channel not calibrated; call Calibrate first")
	}
	syms, err := SymbolsFromBits(bits)
	if err != nil {
		return nil, err
	}
	measures, err := c.RunSymbols(syms)
	if err != nil {
		return nil, err
	}
	elapsed := units.Duration(len(syms)) * c.p.SlotPeriod
	res := &TransmitResult{
		Sent:     syms,
		Decoded:  make([]Symbol, 0, len(measures)),
		Measures: measures,
		Elapsed:  elapsed,
		SentBits: bits,
	}
	for _, m := range measures {
		res.Decoded = append(res.Decoded, c.cal.Decode(float64(m)))
	}
	res.DecodedBits = BitsFromSymbols(res.Decoded)
	res.BER = stats.BER(res.SentBits, res.DecodedBits)
	for i := range res.Sent {
		if res.Sent[i] != res.Decoded[i] {
			res.SymbolErrors++
		}
	}
	if elapsed > 0 {
		res.ThroughputBPS = float64(len(bits)) / elapsed.Seconds()
	}
	return res, nil
}
