package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ichannels/internal/engine"
	"ichannels/internal/scenario"
	"ichannels/internal/soc"
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
// brings its own compute path) reports none. A pool a caller keeps
// across runs (as the server does) hands a later run the machines an
// earlier one released, without leaking state between them.
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
	t.Run("pool shared across runs", func(t *testing.T) {
		pool := soc.NewPool()
		shared := Options{Runner: engine.ScenarioRunFunc(scenario.Runner{Machines: pool}.RunCell)}
		run := func(spec string, baseSeed int64, parallel int) *Result {
			t.Helper()
			opts := shared
			opts.BaseSeed, opts.Parallel = baseSeed, parallel
			res, err := Run(context.Background(), loadSpec(t, spec), opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		// Leave one idle machine of every Table 6 shape: a serial run
		// holds one machine at a time.
		run("table6_processor_mitigation.json", 2, 1)
		first := run("fig14_noise_refined.json", 1, 2)
		firstCells, err := json.Marshal(first.Cells)
		if err != nil {
			t.Fatal(err)
		}
		firstAgg := indentedTable(t, first.Aggregate)

		before := pool.Stats()
		second := run("table6_processor_mitigation.json", 1, 1)
		after := pool.Stats()
		if built, reused := after.Constructed-before.Constructed, after.Reused-before.Reused; built != 0 || reused != uint64(len(second.Cells)) {
			t.Errorf("second run: %d machines built, %d reused over %d cells; want 0 built, every cell reused",
				built, reused, len(second.Cells))
		}
		golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "table6_aggregate.json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := indentedTable(t, second.Aggregate); !bytes.Equal(got, golden) {
			t.Errorf("Table 6 on recycled machines drifted from the golden aggregate:\n%s", got)
		}
		// Nothing the first run returned may alias a buffer the second
		// run's machines reused.
		if got, err := json.Marshal(first.Cells); err != nil || !bytes.Equal(got, firstCells) {
			t.Errorf("the first run's cells changed while the second run ran (%v)", err)
		}
		if got := indentedTable(t, first.Aggregate); !bytes.Equal(got, firstAgg) {
			t.Errorf("the first run's aggregate changed while the second run ran:\n%s\nwant:\n%s", got, firstAgg)
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

// indentedTable renders an aggregate as the goldens store it.
func indentedTable(t *testing.T, tab *Table) []byte {
	t.Helper()
	b, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}
