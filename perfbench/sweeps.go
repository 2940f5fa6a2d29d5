package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ichannels"
)

// specFile is the paper's Table 6 grid as the repository ships it: four
// processors × three IChannels kinds × four mitigations × two payload
// sizes, less the SMT cells on Coffee Lake, which has no SMT. 88 cells.
const specFile = "examples/sweeps/specs/table6_processor_mitigation.json"

const (
	// sweepParallel is the worker count of every measured sweep.
	sweepParallel = 2
	// sweepSeeds is how many base seeds a run cycles its sweeps through.
	sweepSeeds = 8
	// setupRounds is how many times each base seed's set-up is timed.
	setupRounds = 4
	// The resume corpus is what a serial sweep killed after killedAfter
	// of every killedOf cells leaves behind: the point at which the
	// repository's resume acceptance test (internal/sweep) kills its
	// 8-cell sweep.
	killedAfter, killedOf = 3, 8
)

// loadSweep reads and parses the grid, as a sweep run does first.
func loadSweep() (ichannels.Sweep, error) {
	data, err := os.ReadFile(specFile)
	if err != nil {
		return ichannels.Sweep{}, err
	}
	return ichannels.ParseSweepSpec(data)
}

// sweepRef is a serial run of the grid at one base seed: its cells' store
// keys and the aggregate line every op at that seed must reproduce.
type sweepRef struct {
	baseSeed  int64
	keys      []ichannels.ResultStoreKey
	aggregate []byte
}

func reference(ctx context.Context, sw ichannels.Sweep, baseSeed int64) (*sweepRef, error) {
	ref := &sweepRef{baseSeed: baseSeed}
	res, err := ichannels.RunSweep(ctx, sw, ichannels.SweepOptions{
		BaseSeed: baseSeed, Parallel: 1,
		OnCell: func(o ichannels.SweepCellOutcome) error {
			ref.keys = append(ref.keys, ichannels.ResultStoreKey{Hash: o.Hash, Seed: o.Seed})
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		return nil, fmt.Errorf("reference sweep at base seed %d: %d cells failed", baseSeed, res.Failed)
	}
	ref.aggregate, err = aggregateLine(res)
	return ref, err
}

func aggregateLine(res *ichannels.SweepResult) ([]byte, error) {
	var b bytes.Buffer
	err := ichannels.WriteSweepAggregateLine(&b, res.Aggregate)
	return b.Bytes(), err
}

func runCold(ctx context.Context, cfg config) (*outcome, error) {
	l, err := newSweepLoop(ctx, cfg)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	runtime.GC() // no collection of the preparation's garbage runs during the timed set-ups
	for n := 0; n < setupRounds*sweepSeeds; n++ {
		t0 := time.Now()
		if _, err := loadSweep(); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0))
	}
	l.run(ctx, cfg, o)
	return o, nil
}

func runResume(ctx context.Context, cfg config) (*outcome, error) {
	l, err := newSweepLoop(ctx, cfg)
	if err != nil {
		return nil, err
	}
	dirs := make([]string, len(l.refs))
	for k, ref := range l.refs {
		dirs[k] = filepath.Join(cfg.workDir, fmt.Sprintf("corpus-%d", k))
		if l.wantCached[k], err = killedCorpus(ctx, l.sw, ref, dirs[k]); err != nil {
			return nil, err
		}
	}

	o := &outcome{}
	corpora := make([]*ichannels.PackedResultStore, len(dirs))
	defer func() {
		for _, st := range corpora {
			if st != nil {
				st.Close()
			}
		}
	}()
	runtime.GC() // no collection of the preparation's garbage runs during the timed set-ups
	for r := 0; r < setupRounds; r++ {
		for k, dir := range dirs {
			if corpora[k] != nil {
				if err := corpora[k].Close(); err != nil {
					return nil, err
				}
				corpora[k] = nil
			}
			t0 := time.Now()
			if _, err := loadSweep(); err != nil {
				return nil, err
			}
			if corpora[k], err = ichannels.OpenPackedStore(dir); err != nil {
				return nil, err
			}
			o.setups = append(o.setups, time.Since(t0))
		}
	}
	for k, st := range corpora {
		l.stores[k] = readOnly{st}
	}
	l.run(ctx, cfg, o)
	return o, nil
}

// killedCorpus leaves in dir what a serial sweep killed after
// killedAfter of every killedOf cells leaves, and reports how many of
// the reference's cells the corpus holds.
func killedCorpus(ctx context.Context, sw ichannels.Sweep, ref *sweepRef, dir string) (int, error) {
	st, err := ichannels.OpenPackedStore(dir)
	if err != nil {
		return 0, err
	}
	errKilled := errors.New("killed")
	emitted := 0
	_, err = ichannels.RunSweep(ctx, sw, ichannels.SweepOptions{
		BaseSeed: ref.baseSeed, Parallel: 1, Window: 1, Store: st,
		OnCell: func(ichannels.SweepCellOutcome) error {
			if emitted++; emitted >= len(ref.keys)*killedAfter/killedOf {
				return errKilled
			}
			return nil
		},
	})
	if !errors.Is(err, errKilled) {
		st.Close()
		return 0, fmt.Errorf("killed sweep at base seed %d returned %v", ref.baseSeed, err)
	}
	held := 0
	for _, k := range ref.keys {
		_, ok, err := st.Get(k)
		if err != nil {
			st.Close()
			return 0, err
		}
		if ok {
			held++
		}
	}
	return held, st.Close()
}

// sweepLoop runs the grid back to back, one sweep at a time, cycling
// through the reference base seeds.
type sweepLoop struct {
	sw         ichannels.Sweep
	refs       []*sweepRef
	stores     []ichannels.ResultStore // per base seed; nil runs without a store
	wantCached []int                   // per base seed
}

// newSweepLoop computes one serial reference sweep per base seed.
func newSweepLoop(ctx context.Context, cfg config) (*sweepLoop, error) {
	sw, err := loadSweep()
	if err != nil {
		return nil, err
	}
	l := &sweepLoop{
		sw:         sw,
		refs:       make([]*sweepRef, sweepSeeds),
		stores:     make([]ichannels.ResultStore, sweepSeeds),
		wantCached: make([]int, sweepSeeds),
	}
	for i := range l.refs {
		if l.refs[i], err = reference(ctx, sw, splitmix(cfg.seed, i)); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// run warms up, then measures sweeps until cfg.measure has passed,
// checking each against its reference.
func (l *sweepLoop) run(ctx context.Context, cfg config, o *outcome) {
	stores := l.stores
	var traced []*tracedStore
	var lt layers
	var slots []time.Duration
	var inCells, storeFrom time.Duration
	var onCell func(ichannels.SweepCellOutcome) error
	storeTotal := func() (d time.Duration) {
		for _, ts := range traced {
			d += ts.total()
		}
		return d
	}
	measuring := false
	if cfg.trace {
		stores = make([]ichannels.ResultStore, len(l.stores))
		for k, st := range l.stores {
			if st != nil {
				ts := &tracedStore{inner: st}
				traced = append(traced, ts)
				stores[k] = ts
			}
		}
		onCell = func(c ichannels.SweepCellOutcome) error {
			if measuring {
				slots = append(slots, c.Elapsed)
				inCells += c.Elapsed
				if !c.Cached {
					lt.computeDurs = append(lt.computeDurs, c.Elapsed)
				}
			}
			return nil
		}
	}

	var start time.Time
	end := time.Now().Add(warmup)
	for i := 0; ; i++ {
		if now := time.Now(); !now.Before(end) {
			if measuring {
				break
			}
			measuring, start, end = true, now, now.Add(cfg.measure)
			o.allocated = heapAllocated()
			storeFrom = storeTotal()
		}
		k := i % len(l.refs)
		t0 := time.Now()
		res, err := ichannels.RunSweep(ctx, l.sw, ichannels.SweepOptions{
			BaseSeed: l.refs[k].baseSeed, Parallel: sweepParallel, Store: stores[k], OnCell: onCell,
		})
		lat := time.Since(t0)
		if !measuring {
			continue
		}
		o.attempted++
		if err != nil {
			o.failed++
			continue
		}
		if !l.matches(res, k) {
			o.failed++
			o.wrong++
			continue
		}
		o.latencies = append(o.latencies, lat)
		o.cells += len(res.Cells)
		lt.lane += lat * sweepParallel
		lt.computed += len(res.Cells) - res.Cached
		lt.cached += res.Cached
		lt.machinesBuilt += res.MachinesConstructed
		lt.machinesUsed += res.MachinesReused
	}
	o.cellsPerS = float64(o.cells) / time.Since(start).Seconds()
	o.allocated = heapAllocated() - o.allocated
	if cfg.trace {
		lt.opLatencies = o.latencies
		lt.store = storeTotal() - storeFrom
		lt.compute = inCells - lt.store
		lt.pipeline = lt.lane - inCells
		lt.cellP50 = percentile(slots, 50)
		o.layers = lt.metrics()
	}
}

// matches reports whether a sweep reproduced its reference: every cell
// succeeded, the expected cells came from the store, and the aggregate
// line is byte-identical to the serial run's.
func (l *sweepLoop) matches(res *ichannels.SweepResult, k int) bool {
	ref := l.refs[k]
	if res.Failed != 0 || len(res.Cells) != len(ref.keys) || res.Cached != l.wantCached[k] {
		return false
	}
	agg, err := aggregateLine(res)
	return err == nil && bytes.Equal(agg, ref.aggregate)
}
