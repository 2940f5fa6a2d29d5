package sweep

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"ichannels/internal/engine"
	"ichannels/internal/scenario"
)

// loadSpec reads one checked-in sweep spec from examples/sweeps/specs.
func loadSpec(t *testing.T, name string) scenario.Sweep {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "sweeps", "specs", name))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := scenario.ParseSweep(data)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestMachineCounts pins Result.MachinesConstructed and MachinesReused,
// which perfbench reports as machines_built and machines_reused: the
// default executor recycles machines through one pool per run, the
// counts span every refinement pass, and a Runner override (which
// brings its own compute path) reports none.
func TestMachineCounts(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		res, err := Run(context.Background(), loadSpec(t, "table6_processor_mitigation.json"), Options{BaseSeed: 1, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.MachinesReused == 0 || res.MachinesConstructed >= len(res.Cells) {
			t.Errorf("%d cells: %d machines built, %d reused; want reuse and fewer builds than cells",
				len(res.Cells), res.MachinesConstructed, res.MachinesReused)
		}
	})
	t.Run("refined", func(t *testing.T) {
		res, err := Run(context.Background(), loadSpec(t, "fig14_noise_refined.json"), Options{BaseSeed: 1, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		passes := res.Refinement.Passes
		if len(passes) < 2 || passes[len(passes)-1].Cells >= len(res.Cells) {
			t.Fatalf("passes %+v over %d cells: want several passes sharing the cells", passes, len(res.Cells))
		}
		// Every computed cell acquires at least one machine, so counts
		// below the run's cell total would mean a pass went missing.
		if acquired := res.MachinesConstructed + res.MachinesReused; acquired < len(res.Cells) || res.MachinesReused == 0 {
			t.Errorf("%d cells over %d passes: %d machines built, %d reused; want every pass counted, with reuse",
				len(res.Cells), len(passes), res.MachinesConstructed, res.MachinesReused)
		}
	})
	t.Run("runner override", func(t *testing.T) {
		res, err := Run(context.Background(), loadSpec(t, "table6_processor_mitigation.json"),
			Options{BaseSeed: 1, Parallel: 1, Runner: engine.ScenarioRunFunc(fakeRun)})
		if err != nil {
			t.Fatal(err)
		}
		if res.MachinesConstructed != 0 || res.MachinesReused != 0 {
			t.Errorf("runner override: %d machines built, %d reused; want 0/0", res.MachinesConstructed, res.MachinesReused)
		}
	})
}
