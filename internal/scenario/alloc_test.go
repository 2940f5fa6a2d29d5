package scenario

import (
	"context"
	"testing"

	"ichannels/internal/soc"
)

// TestWarmCellAllocs pins what a Table 6 cell allocates on a recycled
// machine, on the trusted cell path the engine drives: RunCell with the
// spec already identified. Fourteen allocations remain, none of them
// scaffolding: the Result envelope and its extras map, the fresh
// profile and Reset's thermal model, the channel and its calibration,
// the assessment, and the transmission the cell grades (payload bits,
// symbols, readings, decoded symbols and bits, and the result holding
// them). The per-core VR mitigation adds its regulator override. The
// machine, its slot agents and the calibration schedule and buffers all
// come from the primed pool.
func TestWarmCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	pool := soc.NewPool()
	for _, kind := range []string{KindThread, KindSMT, KindCores} {
		for _, mit := range []string{MitigationNone, MitigationPerCoreVR} {
			n, hash, err := Scenario{Role: RoleMitigation, Processor: "Cannon Lake", Kind: kind, Mitigation: mit, Bits: 16}.Identify()
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := (Runner{Machines: pool}).RunCell(context.Background(), n, hash, 7); err != nil {
					t.Fatal(err)
				}
			}
			run() // prime: build the machine and the buffers kept on it
			want := 14.0
			if mit == MitigationPerCoreVR {
				want++
			}
			if got := testing.AllocsPerRun(20, run); got > want {
				t.Errorf("%s × %s: %v allocations per warm cell, want at most %v", kind, mit, got, want)
			}
		}
	}
}
