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

	// schedule is the symbol stream of the run in progress; send is
	// c.sendSymbol, bound once in New so a run allocates no closure.
	schedule []Symbol
	send     SlotAction
}

// New validates the placement against the machine and returns a channel.
func New(m *soc.Machine, p Params) (*Channel, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil machine")
	}
	if err := p.Validate(len(m.Cores), m.Proc.SMTWays); err != nil {
		return nil, err
	}
	c := &Channel{m: m, p: p}
	c.send = c.sendSymbol
	return c, nil
}

// sendSymbol runs the sender's PHI loop for slot k's symbol.
func (c *Channel) sendSymbol(k int) (soc.Action, bool) {
	return soc.Exec(c.schedule[k].Kernel(), c.p.SenderIters), true
}

// Params returns the channel's transaction parameters.
func (c *Channel) Params() Params { return c.p }

// Calibration returns the current calibration (nil before Calibrate).
func (c *Channel) Calibration() *Calibration { return c.cal }

// SetCalibration installs an externally learned calibration (used by the
// mitigation study to reuse a baseline calibration).
func (c *Channel) SetCalibration(cal *Calibration) { c.cal = cal }

// RunSymbols performs one transaction per symbol in schedule and returns
// the receiver's raw measurements (TSC cycles), in slot order. This is
// the primitive under Calibrate and Transmit; experiments also use it
// directly (e.g. the Fig. 13 distributions).
func (c *Channel) RunSymbols(schedule []Symbol) ([]float64, error) {
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
	slots := Slots{Base: c.m.Now().Add(20 * units.Microsecond), Period: c.p.SlotPeriod, N: len(schedule)}
	c.schedule = schedule
	rcv := &SlotReceiver{Label: "ichannels.receiver", Slots: slots, Offset: c.p.ReceiverOffset,
		Kernel: c.p.Kind.ReceiverKernel(), Iters: c.p.ReceiverIters}
	if c.p.Kind == SameThread {
		// IccThreadCovert interleaves sending and measuring on one
		// hardware thread: the symbol's PHI loop runs right at the slot
		// boundary, then the 512b_Heavy measurement loop.
		rcv.Label, rcv.Offset, rcv.Before = "ichannels.samethread", 0, c.send
		return RunSlots(c.m, slots, 100*units.Microsecond, &rcv.Measures,
			Placed{Core: c.p.SenderCore, Slot: c.p.SenderSlot, Agent: rcv})
	}
	snd := &SlotSender{Label: "ichannels.sender", Slots: slots, Send: c.send}
	return RunSlots(c.m, slots, 100*units.Microsecond, &rcv.Measures,
		Placed{Core: c.p.SenderCore, Slot: c.p.SenderSlot, Agent: snd},
		Placed{Core: c.p.ReceiverCore, Slot: c.p.ReceiverSlot, Agent: rcv})
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
		groups[s] = append(groups[s], m)
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
