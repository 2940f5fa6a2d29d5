package core

import (
	"fmt"
	"slices"

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

// runScratch is the working memory channel runs keep on their machine
// (soc.Machine.Scratch), so a recycled machine runs a cell without
// rebuilding it: the slot agents, the symbol stream the sender plays,
// and calibration's schedule, readings and per-symbol groups. Every
// channel on a machine shares it; runs on one machine are sequential,
// and each run re-initialises what it takes. Nothing a run returns
// aliases it.
type runScratch struct {
	// rcv and snd are the last completed run's agents, nil while a run
	// holds them; a run that fails may leave them bound, so it does not
	// return them.
	rcv *SlotReceiver
	snd *SlotSender
	// schedule and iters are the run in progress's symbols and sender
	// loop length; send plays them, bound once per machine so a run
	// allocates no closure.
	schedule []Symbol
	iters    int64
	send     SlotAction

	calSchedule []Symbol
	calMeasures []float64
	groups      [NumSymbols][]float64
}

// scratchOf returns m's runScratch, creating it on m's first run.
func scratchOf(m *soc.Machine) *runScratch {
	if sc, ok := m.Scratch.(*runScratch); ok {
		return sc
	}
	sc := &runScratch{}
	sc.send = sc.sendSymbol
	m.Scratch = sc
	return sc
}

// sendSymbol runs the sender's PHI loop for slot k's symbol.
func (sc *runScratch) sendSymbol(k int) (soc.Action, bool) {
	return soc.Exec(sc.schedule[k].Kernel(), sc.iters), true
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

// RunSymbols performs one transaction per symbol in schedule and returns
// the receiver's raw measurements (TSC cycles), in slot order. This is
// the primitive under Calibrate and Transmit; experiments also use it
// directly (e.g. the Fig. 13 distributions).
func (c *Channel) RunSymbols(schedule []Symbol) ([]float64, error) {
	return c.runSymbols(schedule, nil)
}

// runSymbols is RunSymbols recording into buf's storage when it has room
// for every slot (nil allocates a fresh slice).
func (c *Channel) runSymbols(schedule []Symbol, buf []float64) ([]float64, error) {
	if len(schedule) == 0 {
		return nil, fmt.Errorf("core: empty schedule")
	}
	for _, s := range schedule {
		if !s.Valid() {
			return nil, fmt.Errorf("core: invalid symbol %d in schedule", int(s))
		}
	}
	sc := scratchOf(c.m)
	rcv, snd := sc.rcv, sc.snd
	if rcv == nil {
		rcv, snd = new(SlotReceiver), new(SlotSender)
	}
	sc.rcv, sc.snd = nil, nil
	sc.schedule, sc.iters = schedule, c.p.SenderIters
	// First slot starts shortly after "now" so both sides can reach
	// their spin loops.
	slots := Slots{Base: c.m.Now().Add(20 * units.Microsecond), Period: c.p.SlotPeriod, N: len(schedule)}
	*rcv = SlotReceiver{Label: "ichannels.receiver", Slots: slots, Offset: c.p.ReceiverOffset,
		Kernel: c.p.Kind.ReceiverKernel(), Iters: c.p.ReceiverIters, Measures: buf[:0]}
	agents := []Placed{{Core: c.p.SenderCore, Slot: c.p.SenderSlot, Agent: rcv}}
	if c.p.Kind == SameThread {
		// IccThreadCovert interleaves sending and measuring on one
		// hardware thread: the symbol's PHI loop runs right at the slot
		// boundary, then the 512b_Heavy measurement loop.
		rcv.Label, rcv.Offset, rcv.Before = "ichannels.samethread", 0, sc.send
	} else {
		*snd = SlotSender{Label: "ichannels.sender", Slots: slots, Send: sc.send}
		agents = []Placed{
			{Core: c.p.SenderCore, Slot: c.p.SenderSlot, Agent: snd},
			{Core: c.p.ReceiverCore, Slot: c.p.ReceiverSlot, Agent: rcv},
		}
	}
	measures, err := RunSlots(c.m, slots, 100*units.Microsecond, &rcv.Measures, agents...)
	if err == nil {
		sc.rcv, sc.snd = rcv, snd
	}
	return measures, err
}

// Calibrate learns the decision thresholds by transmitting a known
// round-robin symbol pattern perSymbol times each and clustering the
// receiver's measurements. It returns the calibration's cluster gap in
// cycles; Calibration exposes the full decision rule.
func (c *Channel) Calibrate(perSymbol int) (gap float64, err error) {
	if perSymbol <= 0 {
		return 0, fmt.Errorf("core: perSymbol must be positive")
	}
	sc := scratchOf(c.m)
	schedule := sc.calSchedule[:0]
	for i := 0; i < perSymbol; i++ {
		for s := 0; s < NumSymbols; s++ {
			schedule = append(schedule, Symbol(s))
		}
	}
	sc.calSchedule = schedule
	measures, err := c.runSymbols(schedule, sc.calMeasures)
	if err != nil {
		// A receiver left bound may still write into the buffer.
		sc.calMeasures = nil
		return 0, err
	}
	sc.calMeasures = measures
	groups := &sc.groups
	for s := range groups {
		groups[s] = slices.Grow(groups[s][:0], perSymbol)
	}
	for i, m := range measures {
		s := schedule[i]
		groups[s] = append(groups[s], m)
	}
	cal, err := NewCalibration(*groups)
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
	Measures []float64
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
	measures, err := c.runSymbols(syms, nil)
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
		res.Decoded = append(res.Decoded, c.cal.Decode(m))
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
