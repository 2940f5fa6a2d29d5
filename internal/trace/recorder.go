// Package trace records time series from a running machine, playing the
// role of the paper's NI-DAQ measurement card (§5.1): a periodic sampler of
// regulator voltage, supply current, frequency, temperature, and per-core
// IPC, at a configurable rate (the real card samples at up to 3.5 MS/s).
package trace

import (
	"fmt"
	"io"

	"ichannels/internal/soc"
	"ichannels/internal/units"
)

// Recorder samples a machine at a fixed interval.
type Recorder struct {
	m        *soc.Machine
	interval units.Duration
	samples  []soc.PowerState
	running  bool
}

// NewRecorder creates a recorder sampling every interval. It does not
// start sampling until Start is called.
func NewRecorder(m *soc.Machine, interval units.Duration) (*Recorder, error) {
	if m == nil {
		return nil, fmt.Errorf("trace: nil machine")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("trace: non-positive sampling interval %v", interval)
	}
	return &Recorder{m: m, interval: interval}, nil
}

// Start begins sampling at the current simulated time. Sampling continues
// until Stop.
func (r *Recorder) Start() {
	if r.running {
		return
	}
	r.running = true
	r.tick()
}

// Stop ends sampling after the current simulated instant.
func (r *Recorder) Stop() { r.running = false }

func (r *Recorder) tick() {
	if !r.running {
		return
	}
	r.samples = append(r.samples, r.m.Probe())
	r.m.Q.After(r.interval, func(units.Time) { r.tick() })
}

// Samples returns the recorded series.
func (r *Recorder) Samples() []soc.PowerState { return r.samples }

// Len returns the number of samples recorded.
func (r *Recorder) Len() int { return len(r.samples) }

// VccDelta returns, for each sample, the regulator voltage in millivolts
// relative to the first sample — the quantity Fig. 6 plots.
func (r *Recorder) VccDelta() []float64 {
	if len(r.samples) == 0 {
		return nil
	}
	v0 := r.samples[0].Vcc
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = (s.Vcc - v0).Millivolts()
	}
	return out
}

// MaxVccDelta returns the maximum millivolt rise over the recording.
func (r *Recorder) MaxVccDelta() float64 {
	var max float64
	for _, d := range r.VccDelta() {
		if d > max {
			max = d
		}
	}
	return max
}

// WriteCSV emits the series as CSV (time in µs) for offline plotting.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t_us,vcc_v,vccload_v,icc_a,power_w,freq_ghz,temp_c,ipc0,throttled0"); err != nil {
		return err
	}
	for _, s := range r.samples {
		ipc0, th0 := 0.0, 0
		if len(s.CoreIPC) > 0 {
			ipc0 = s.CoreIPC[0]
		}
		if len(s.Throttled) > 0 && s.Throttled[0] {
			th0 = 1
		}
		if _, err := fmt.Fprintf(w, "%.3f,%.6f,%.6f,%.3f,%.3f,%.3f,%.2f,%.3f,%d\n",
			s.T.Microseconds(), float64(s.Vcc), float64(s.Vccload), float64(s.Icc),
			float64(s.Power), s.Freq.GHzF(), float64(s.Temp), ipc0, th0); err != nil {
			return err
		}
	}
	return nil
}
