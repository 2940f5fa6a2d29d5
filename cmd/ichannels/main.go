// Command ichannels regenerates the paper's figures and tables and runs
// covert-channel demonstrations on the simulator.
//
// Usage:
//
//	ichannels list                      list available experiments
//	ichannels exp <id> [-seed N]        run one experiment (e.g. fig10a)
//	ichannels exp all [-seed N]         run every experiment serially
//	ichannels run [ids...|--all] [-parallel N] [-seed N] [-json]
//	                                    alias: scenario run over the experiments
//	ichannels scenario run spec.json    run declarative scenario spec(s)
//	ichannels scenario schema           print the scenario JSON schema
//	ichannels sweep run sweep.json      expand and run a parameter grid
//	ichannels sweep expand sweep.json   print a grid's expanded cells
//	ichannels sweep schema              print the sweep JSON schema
//	ichannels serve [-addr HOST:PORT]   serve the scenario API over HTTP
//	ichannels demo [-kind K] [-seed N]  transmit a message covertly
//	ichannels spy [-seed N]             instruction-class inference demo
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ichannels"
	"ichannels/internal/scenario"
)

// shutdownSignals end a run or the server gracefully: the context
// cancels, and the deferred closers still seal the active packed
// segment and drain the replica flush queue. SIGTERM is what service
// managers and container runtimes send.
var shutdownSignals = []os.Signal{os.Interrupt, syscall.SIGTERM}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = list()
	case "exp":
		err = runExp(os.Args[2:])
	case "run":
		err = runBatch(os.Args[2:])
	case "scenario":
		err = scenarioCmd(os.Args[2:])
	case "sweep":
		err = sweepCmd(os.Args[2:])
	case "store":
		err = storeCmd(os.Args[2:])
	case "serve":
		err = serveCmd(os.Args[2:])
	case "demo":
		err = demo(os.Args[2:])
	case "spy":
		err = spy(os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ichannels:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ichannels list                      list available experiments
  ichannels exp <id>|all [-seed N]    regenerate paper figures/tables (serial)
  ichannels run [ids...] [--all] [scenario run flags]
                                      alias of scenario run over experiment-role specs (one per id);
                                      per-experiment seeds derive from -seed and the spec hash
  ichannels scenario run <spec.json...|-> [-parallel N] [-seed N] [-json|-ndjson] [-store DIR|URL [-cache DIR] [-resume]]
                                      run declarative scenario spec(s) (object or array per file)
  ichannels scenario schema           print the scenario spec JSON schema
  ichannels sweep run <sweep.json|-> [-parallel N] [-seed N] [-json|-ndjson] [-store DIR|URL [-cache DIR] [-resume]]
                                     [-refine] [-workers URL,URL,...]
                                      expand a parameter grid and run it (streaming, grouped aggregate;
                                      -store persists cells, -resume serves surviving cells from it;
                                      with a remote -store URL, -cache DIR keeps a read-through replica:
                                      local hits skip the network, remote hits are verified once and
                                      kept, writes flush upstream asynchronously;
                                      a spec with a refine block runs adaptively — coarse pass, then
                                      only regions whose metric moves re-expand; -refine asserts one;
                                      -workers dispatches cells to 'serve -worker' nodes, with verified
                                      responses, redispatch on failure, and byte-identical output)
  ichannels sweep expand <sweep.json|-> [-json]
                                      print a grid's expanded cells without running them
  ichannels sweep schema              print the sweep spec JSON schema
  ichannels store ls|verify|gc|pack <dir> [-json] (gc: [-max-age DUR] [-max-bytes N])
                                      list, integrity-check, clean, or migrate a result store directory
                                      (gc retention: drop entries older than -max-age, then evict oldest
                                      until the corpus fits -max-bytes; pack migrates a corpus in the
                                      retired per-file layout to packed segments in place, idempotent and
                                      crash-resumable — every other verb and -store refuse such a corpus)
  ichannels store sync <dir> -to URL [-json]
                                      push every local entry the remote corpus lacks (reconcile a
                                      -cache replica after a partition, dropped flushes, or a remote
                                      wipe; idempotent — deterministic results make pushes byte-stable)
  ichannels store bench [-n N] [-reads N] [-dir DIR] [-json|-bench]
                                      fill a synthetic corpus and measure write throughput, warm-read
                                      latency, and gc time (-bench emits go-bench lines)
  ichannels serve [-addr HOST:PORT] [-store DIR|URL [-cache DIR]] [-worker] [-share]
                  [-gc-every DUR [-max-age DUR] [-max-bytes N]]
                                      HTTP v1 API: GET /v1/experiments, GET /v1/scenarios/schema,
                                      POST /v1/scenarios, POST /v1/sweeps, GET /v1/sweeps/schema,
                                      GET /v1/stats (experiments run as {"role":"experiment",...};
                                      -store = durable result tier, a directory or a remote URL;
                                      -cache layers a local read-through replica over a remote URL;
                                      -worker adds POST /v1/cells, the distributed sweep cell endpoint;
                                      -share adds GET/PUT /v1/store/{key} + GET /v1/store, so other
                                      processes can use this corpus via -store http://HOST:PORT;
                                      -gc-every runs server-side retention on a timer: corrupt and
                                      expired entries dropped, oldest evicted to fit -max-bytes, and
                                      oversized uploads rejected at the door; config + last report
                                      are advertised on /v1/stats)
  ichannels demo [-kind thread|smt|cores|retire|clockmod] [-msg S] [-seed N]
  ichannels spy [-seed N]
  ichannels trace [-proc NAME] [-class C] [-ghz F] [-us D]  CSV Vcc/Icc/IPC trace`)
}

func list() error {
	for _, e := range ichannels.Experiments() {
		fmt.Printf("  %-10s %-6s %s\n", e.ID, e.Section, e.Desc)
	}
	return nil
}

// runBatch is the experiment alias of scenario run: each id (or, with
// --all, every registered experiment) becomes an experiment-role
// scenario, and the batch runs exactly as a spec file holding those
// scenarios would — same flags, writers, and seed derivation.
func runBatch(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	all := fs.Bool("all", false, "run every registered experiment")
	return runScenarioBatch("run", args, fs, func(ids []string) ([]ichannels.Scenario, error) {
		if *all {
			if len(ids) > 0 {
				return nil, errors.New("give either --all or explicit experiment ids, not both")
			}
			return ichannels.AllExperimentScenarios(), nil
		}
		if len(ids) == 0 {
			return nil, errors.New("no experiments selected (pass ids or --all; see 'ichannels list')")
		}
		specs := make([]ichannels.Scenario, len(ids))
		seen := map[string]bool{}
		for i, id := range ids {
			if seen[id] {
				return nil, fmt.Errorf("experiment %q given more than once (same seed would just repeat the report)", id)
			}
			seen[id] = true
			specs[i] = ichannels.ScenarioFromExperiment(id)
		}
		return specs, nil
	})
}

// scenarioCmd dispatches the scenario subcommands.
func scenarioCmd(args []string) error {
	if len(args) < 1 {
		return errors.New("scenario: missing subcommand (run or schema)")
	}
	switch args[0] {
	case "schema":
		_, err := os.Stdout.Write(ichannels.ScenarioSchemaJSON())
		return err
	case "run":
		return scenarioRun(args[1:])
	default:
		return fmt.Errorf("scenario: unknown subcommand %q (run or schema)", args[0])
	}
}

// splitFilesAndFlags separates positional file paths ("-" = stdin) from
// flags, accepting them in any order, and parses the flags into fs —
// the one arg loop the scenario and sweep subcommands share.
func splitFilesAndFlags(cmd string, args []string, fs *flag.FlagSet) ([]string, error) {
	var files []string
	rest := args
	for len(rest) > 0 {
		for len(rest) > 0 && (!strings.HasPrefix(rest[0], "-") || rest[0] == "-") {
			files = append(files, rest[0])
			rest = rest[1:]
		}
		if len(rest) == 0 {
			break
		}
		if err := fs.Parse(rest); err != nil {
			return nil, err
		}
		if len(fs.Args()) == len(rest) {
			return nil, fmt.Errorf("%s: unexpected argument %q", cmd, rest[0])
		}
		rest = fs.Args()
	}
	return files, nil
}

// scenarioRun loads one or more spec files (each a single scenario
// object or an array) and executes them as one batch.
func scenarioRun(args []string) error {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	return runScenarioBatch("scenario run", args, fs, func(files []string) ([]ichannels.Scenario, error) {
		if len(files) == 0 {
			return nil, errors.New("no spec files given (pass paths or - for stdin)")
		}
		var specs []ichannels.Scenario
		for _, f := range files {
			var data []byte
			var err error
			if f == "-" {
				data, err = io.ReadAll(os.Stdin)
			} else {
				data, err = os.ReadFile(f)
			}
			if err != nil {
				return nil, err
			}
			loaded, err := decodeSpecs(data)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			specs = append(specs, loaded...)
		}
		return specs, nil
	})
}

// runScenarioBatch is the one CLI path a scenario batch takes: it adds
// the shared batch flags to fs, parses args, turns the positional
// arguments into specs with load, and runs them through the engine.
// Results go to stdout (deterministic for a fixed seed, regardless of
// -parallel); per-scenario timing goes to stderr.
func runScenarioBatch(cmd string, args []string, fs *flag.FlagSet, load func(positional []string) ([]ichannels.Scenario, error)) error {
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size")
	seed := fs.Int64("seed", 1, "base seed; 0 means the default, 1 (scenarios that pin no seed derive theirs from it)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON batch instead of the comparison table")
	ndjsonOut := fs.Bool("ndjson", false, "emit one JSON outcome per line (the HTTP v1 batch framing)")
	storeDir := fs.String("store", "", "persist results to this store directory")
	cacheDir := fs.String("cache", "", "with a remote -store URL, keep a local read-through replica cache in this directory")
	resume := fs.Bool("resume", false, "serve scenarios the store already holds instead of recomputing them")
	positional, err := splitFilesAndFlags(cmd, args, fs)
	if err != nil {
		return err
	}
	if *jsonOut && *ndjsonOut {
		return fmt.Errorf("%s: give either -json or -ndjson, not both", cmd)
	}
	if *seed, err = scenario.ResolveSeed(*seed); err != nil {
		return fmt.Errorf("%s: -%w", cmd, err)
	}
	specs, err := load(positional)
	if err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	st, closeStore, err := openRunStore(cmd, *storeDir, *cacheDir, *resume)
	if err != nil {
		return err
	}
	defer closeStore()

	ctx, stop := signal.NotifyContext(context.Background(), shutdownSignals...)
	defer stop()
	batch, err := ichannels.RunScenarios(ctx, ichannels.ScenarioBatchOptions{
		Scenarios: specs, BaseSeed: *seed, Parallel: *parallel, Store: st,
	})
	if err != nil {
		return err
	}
	switch {
	case *jsonOut:
		err = batch.WriteJSON(os.Stdout)
	case *ndjsonOut:
		err = batch.WriteNDJSON(os.Stdout)
	default:
		err = batch.WriteText(os.Stdout)
	}
	if err != nil {
		return err
	}
	batch.WriteTiming(os.Stderr)
	writeStoreLines(os.Stderr, st, batch.StoreTransient, batch.StorePermanent)
	if failed := batch.Failed(); len(failed) > 0 {
		return fmt.Errorf("%s: %d of %d scenarios failed (first: %s: %v)",
			cmd, len(failed), len(batch.Results), failed[0].Scenario.Describe(), failed[0].Err)
	}
	return nil
}

// decodeSpecs parses one spec file through the shared strict decoder
// (the same one the HTTP v1 layer uses), so checked-in specs cannot
// drift from the schema and CLI/wire accept identical payloads.
func decodeSpecs(data []byte) ([]ichannels.Scenario, error) {
	specs, _, err := ichannels.ParseScenarioSpecs(data)
	return specs, err
}

// sweepCmd dispatches the sweep subcommands.
func sweepCmd(args []string) error {
	if len(args) < 1 {
		return errors.New("sweep: missing subcommand (run, expand, or schema)")
	}
	switch args[0] {
	case "schema":
		_, err := os.Stdout.Write(ichannels.SweepSchemaJSON())
		return err
	case "run":
		return sweepRun(args[1:])
	case "expand":
		return sweepExpand(args[1:])
	default:
		return fmt.Errorf("sweep: unknown subcommand %q (run, expand, or schema)", args[0])
	}
}

// loadSweep reads and strictly decodes one sweep spec file (or stdin).
func loadSweep(cmd string, args []string, fs *flag.FlagSet) (ichannels.Sweep, error) {
	files, err := splitFilesAndFlags(cmd, args, fs)
	if err != nil {
		return ichannels.Sweep{}, err
	}
	if len(files) != 1 {
		return ichannels.Sweep{}, fmt.Errorf("%s: give exactly one sweep spec file (or - for stdin); the axes provide the fan-out", cmd)
	}
	var data []byte
	if files[0] == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(files[0])
	}
	if err != nil {
		return ichannels.Sweep{}, fmt.Errorf("%s: %w", cmd, err)
	}
	sw, err := ichannels.ParseSweepSpec(data)
	if err != nil {
		return ichannels.Sweep{}, fmt.Errorf("%s: %s: %w", cmd, files[0], err)
	}
	return sw, nil
}

// sweepRun expands a parameter grid and executes it on the streaming
// engine. Text and -json modes print at the end (compact summaries +
// grouped aggregate; never the full envelopes); -ndjson streams one
// full outcome line per cell as it completes, then the aggregate line —
// the same framing POST /v1/sweeps uses, with byte-identical aggregate
// output for a fixed spec and seed.
func sweepRun(args []string) error {
	fs := flag.NewFlagSet("sweep run", flag.ContinueOnError)
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size")
	seed := fs.Int64("seed", 1, "base seed; 0 means the default, 1 (cells that pin no seed derive theirs from it)")
	jsonOut := fs.Bool("json", false, "emit the machine-readable summary (cells + aggregate) instead of text")
	ndjsonOut := fs.Bool("ndjson", false, "stream one JSON outcome per cell plus a final aggregate line (the HTTP v1 framing)")
	storeDir := fs.String("store", "", "persist cell results to this store directory")
	cacheDir := fs.String("cache", "", "with a remote -store URL, keep a local read-through replica cache in this directory")
	resume := fs.Bool("resume", false, "serve cells the store already holds instead of recomputing them (resume a killed sweep)")
	refine := fs.Bool("refine", false, "require adaptive refinement: error unless the spec carries a refine block (a spec with one always runs refined)")
	workers := fs.String("workers", "", "comma-separated worker base URLs (ichannels serve -worker nodes) to dispatch cells to")
	sw, err := loadSweep("sweep run", args, fs)
	if err != nil {
		return err
	}
	if *jsonOut && *ndjsonOut {
		return errors.New("sweep run: give either -json or -ndjson, not both")
	}
	if *seed, err = scenario.ResolveSeed(*seed); err != nil {
		return fmt.Errorf("sweep run: -%w", err)
	}
	if *refine && sw.Refine == nil {
		return errors.New("sweep run: -refine given but the spec has no refine block (see 'ichannels sweep schema')")
	}
	st, closeStore, err := openRunStore("sweep run", *storeDir, *cacheDir, *resume)
	if err != nil {
		return err
	}
	defer closeStore()

	ctx, stop := signal.NotifyContext(context.Background(), shutdownSignals...)
	defer stop()
	opts := ichannels.SweepOptions{BaseSeed: *seed, Parallel: *parallel}.WithStore(st)
	var pool *ichannels.WorkerPool
	if *workers != "" {
		if pool, err = ichannels.NewWorkerPool(strings.Split(*workers, ","), ichannels.WorkerPoolOptions{}); err != nil {
			return fmt.Errorf("sweep run: %w", err)
		}
		opts.Runner = pool
	}
	var enc *json.Encoder
	if *ndjsonOut {
		enc = json.NewEncoder(os.Stdout)
		opts.OnCell = func(o ichannels.SweepCellOutcome) error {
			return enc.Encode(ichannels.SweepCellLine(o))
		}
		opts.OnPass = func(p ichannels.SweepPassStats) error {
			return ichannels.WriteSweepPassLine(os.Stdout, p)
		}
	}
	res, err := ichannels.RunSweep(ctx, sw, opts)
	if err != nil {
		return err
	}
	switch {
	case *ndjsonOut:
		err = res.WriteAggregateLine(os.Stdout)
	case *jsonOut:
		err = res.WriteJSON(os.Stdout)
	default:
		err = res.WriteText(os.Stdout)
	}
	if err != nil {
		return err
	}
	res.WriteTiming(os.Stderr)
	if pool != nil {
		// The fleet counters come from the pool that owns them. Store
		// tallies ride the dist line: hits are cells the corpus served,
		// misses the cells that had to compute, errors the degraded
		// store operations split by class — transient is the network's
		// fault, permanent the bytes' fault (all wall-clock metadata —
		// the aggregate bytes never depend on them).
		storeHits, storeMisses := 0, 0
		if *storeDir != "" {
			storeHits = res.Cached
			storeMisses = len(res.Cells) - res.Cached
		}
		ds := pool.Stats()
		fmt.Fprintf(os.Stderr, "dist: %d remote, %d redispatched, %d corrupt, %d local fallback; store: %d hits, %d misses, %d transient, %d permanent\n",
			ds.Dispatched, ds.Redispatched, ds.Corrupt, ds.LocalFallback,
			storeHits, storeMisses, res.StoreTransient, res.StorePermanent)
	}
	writeStoreLines(os.Stderr, st, res.StoreTransient, res.StorePermanent)
	if res.Failed > 0 {
		return fmt.Errorf("sweep run: %d of %d cells failed", res.Failed, len(res.Cells))
	}
	return nil
}

// writeStoreLines reports the resilient store path's counters when a
// run had a remote corpus behind it: retry/breaker activity on the
// remote leg and cache activity on the replica leg, read from the store
// that owns them, then the run's split of degraded store operations.
// Wall-clock metadata only — the result bytes never depend on it.
func writeStoreLines(w io.Writer, st ichannels.ResultStore, transient, permanent int) {
	ts, ok := st.(interface {
		TierStats() ichannels.StoreTierStats
	})
	if !ok {
		return
	}
	t := ts.TierStats()
	if t.Remote == nil && t.Replica == nil {
		return
	}
	if r := t.Remote; r != nil {
		fmt.Fprintf(w, "store remote: %d attempts, %d retries, %d transient, %d permanent, %d breaker opens, %d fast fails, state %s\n",
			r.Attempts, r.Retries, r.Transient, r.Permanent, r.BreakerOpens, r.FastFails, r.State)
	}
	if c := t.Replica; c != nil {
		fmt.Fprintf(w, "store replica: %d local hits, %d fills, %d remote misses, %d corrupt, %d flushed, %d flush errors, %d dropped\n",
			c.LocalHits, c.RemoteFills, c.RemoteMisses, c.CorruptRemote, c.FlushOK, c.FlushErrors, c.FlushDropped)
	}
	// The engine-side split of degraded store operations: transient is
	// the network's fault (retried, then recomputed), permanent the
	// bytes' fault (a byzantine corpus — rejected, never retried).
	fmt.Fprintf(w, "store errors: %d transient, %d permanent\n", transient, permanent)
}

// sweepExpand prints a grid's cells without running them: a text table
// by default, or (-json) a JSON array of the normalized scenarios —
// which `ichannels scenario run -` accepts verbatim.
func sweepExpand(args []string) error {
	fs := flag.NewFlagSet("sweep expand", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the cells as a runnable JSON scenario array")
	sw, err := loadSweep("sweep expand", args, fs)
	if err != nil {
		return err
	}
	cells, err := ichannels.ExpandSweep(sw)
	if err != nil {
		return err
	}
	if *jsonOut {
		specs := make([]ichannels.Scenario, len(cells))
		for i, c := range cells {
			specs[i] = c.Scenario
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(specs)
	}
	for _, c := range cells {
		fmt.Printf("%4d  %-16s  %s\n", c.Index, c.Scenario.Hash(), c.Scenario.Name)
	}
	fmt.Printf("%d cells (hash %s, group by %s)\n", len(cells), sw.Hash(), strings.Join(sw.EffectiveGroupBy(), ", "))
	return nil
}

// openStore opens the optional -store/-cache pair the run commands and
// serve share: no -store means no store (nil). The spec is a packed
// directory (created if new) or an http(s) URL naming a `serve -share`
// corpus; with a URL, -cache DIR layers a read-through replica cache
// over it (local hits skip the network, remote hits are verified once
// and kept, writes flush upstream asynchronously).
func openStore(cmd, spec, cache string) (ichannels.ResultStore, error) {
	if spec == "" {
		if cache != "" {
			return nil, fmt.Errorf("%s: -cache needs -store URL (a remote corpus to cache)", cmd)
		}
		return nil, nil
	}
	st, err := ichannels.OpenResultStore(spec, cache)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cmd, err)
	}
	return st, nil
}

// openRunStore adds -resume to openStore for the scenario and sweep run
// commands: -store alone persists but recomputes everything
// (re-verifying determinism), -store with -resume serves
// already-materialized results. The returned closer seals packed
// segments and drains the replica flush queue, and must run after the
// run drains.
func openRunStore(cmd, spec, cache string, resume bool) (ichannels.ResultStore, func() error, error) {
	if resume && spec == "" {
		return nil, nil, fmt.Errorf("%s: -resume needs -store DIR|URL (nothing to resume from)", cmd)
	}
	st, err := openStore(cmd, spec, cache)
	if err != nil {
		return nil, nil, err
	}
	closeStore := func() error { return ichannels.CloseResultStore(st) }
	if !resume {
		return ichannels.WriteOnlyStore(st), closeStore, nil
	}
	return st, closeStore, nil
}

// storeCmd dispatches the result-store maintenance subcommands. Every
// directory subcommand but pack opens the packed store, which refuses a
// per-file corpus with a `store pack` hint.
func storeCmd(args []string) error {
	if len(args) < 1 {
		return errors.New("store: missing subcommand (ls, verify, gc, pack, sync, or bench)")
	}
	sub := args[0]
	switch sub {
	case "bench":
		return storeBench(args[1:])
	case "sync":
		return storeSync(args[1:])
	case "ls", "verify", "gc", "pack":
	default:
		return fmt.Errorf("store: unknown subcommand %q (ls, verify, gc, pack, sync, or bench)", sub)
	}
	fs := flag.NewFlagSet("store "+sub, flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	var maxAge time.Duration
	var maxBytes int64
	if sub == "gc" {
		fs.DurationVar(&maxAge, "max-age", 0, "also remove intact entries older than this (e.g. 72h; 0 = keep all ages)")
		fs.Int64Var(&maxBytes, "max-bytes", 0, "evict oldest intact entries until the store fits this many bytes (0 = unbounded)")
	}
	dirs, err := splitFilesAndFlags("store "+sub, args[1:], fs)
	if err != nil {
		return err
	}
	if len(dirs) != 1 {
		return fmt.Errorf("store %s: give exactly one store directory", sub)
	}
	if _, err := os.Stat(dirs[0]); err != nil {
		return fmt.Errorf("store %s: %w", sub, err)
	}
	emit := func(v any) error {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	if sub == "pack" {
		rep, err := ichannels.PackStore(dirs[0])
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(rep)
		}
		for _, p := range rep.Problems {
			fmt.Printf("SKIPPED %s\n", p)
		}
		fmt.Printf("packed %d entries (%d bytes) into %d segments; %d already packed, %d skipped\n",
			rep.Packed, rep.Bytes, rep.Segments, rep.AlreadyPacked, rep.Skipped)
		return nil
	}
	st, err := ichannels.OpenPackedStore(dirs[0])
	if err != nil {
		return err
	}
	defer st.Close()
	switch sub {
	case "ls":
		entries, err := st.List()
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(entries)
		}
		var total int64
		for _, e := range entries {
			fmt.Printf("%-24s %-12d %8d\n", e.Key.Hash, e.Key.Seed, e.Size)
			total += e.Size
		}
		fmt.Printf("%d entries, %d bytes\n", len(entries), total)
	case "verify":
		rep, err := st.Verify()
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := emit(rep); err != nil {
				return err
			}
		} else {
			for _, p := range rep.Problems {
				fmt.Printf("CORRUPT %s: %s\n", p.Path, p.Err)
			}
			fmt.Printf("%d entries, %d bytes, %d corrupt, %d stray files\n",
				rep.Entries, rep.Bytes, len(rep.Problems), rep.Stray)
		}
		if len(rep.Problems) > 0 {
			return fmt.Errorf("store verify: %d corrupt entries (run 'ichannels store gc %s' to remove them)", len(rep.Problems), dirs[0])
		}
	case "gc":
		rep, err := st.GCWith(ichannels.StoreGCOptions{MaxAge: maxAge, MaxBytes: maxBytes})
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(rep)
		}
		fmt.Printf("removed %d corrupt entries, %d stray files, %d expired, %d over budget (%d bytes); %d entries kept, %d foreign files skipped\n",
			rep.RemovedCorrupt, rep.RemovedStray, rep.RemovedExpired, rep.RemovedOverBudget, rep.ReclaimedBytes, rep.Kept, rep.Skipped)
	}
	return nil
}

// storeSync reconciles a local store directory (typically a -cache
// replica) against a remote corpus: every local entry the remote lacks
// is pushed upstream. The recovery path after a partition, a dropped
// flush, or a remote wipe — safe to re-run, since deterministic
// results make every push byte-idempotent.
func storeSync(args []string) error {
	fs := flag.NewFlagSet("store sync", flag.ContinueOnError)
	remote := fs.String("to", "", "remote corpus base URL (a serve -share process); required")
	jsonOut := fs.Bool("json", false, "emit the machine-readable report")
	dirs, err := splitFilesAndFlags("store sync", args, fs)
	if err != nil {
		return err
	}
	if len(dirs) != 1 {
		return errors.New("store sync: give exactly one local store directory")
	}
	if *remote == "" {
		return errors.New("store sync: -to URL is required (the remote corpus to reconcile against)")
	}
	if _, err := os.Stat(dirs[0]); err != nil {
		return fmt.Errorf("store sync: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), shutdownSignals...)
	defer stop()
	rep, err := ichannels.SyncStoreDir(ctx, dirs[0], *remote)
	if err != nil {
		return fmt.Errorf("store sync: %w", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("synced %s -> %s: %d local, %d remote, %d pushed, %d push errors\n",
		dirs[0], *remote, rep.LocalEntries, rep.RemoteEntries, rep.Pushed, rep.PushErrors)
	if rep.PushErrors > 0 {
		return fmt.Errorf("store sync: %d pushes failed (re-run to retry)", rep.PushErrors)
	}
	return nil
}

// storeBench measures the packed store on a synthetic corpus: write
// throughput, warm-read latency, gc time.
func storeBench(args []string) error {
	fs := flag.NewFlagSet("store bench", flag.ContinueOnError)
	n := fs.Int("n", 1000000, "synthetic entries to write")
	reads := fs.Int("reads", 0, "warm reads to time (0 = one per entry)")
	dir := fs.String("dir", "", "scratch directory (default: a temp dir, removed afterwards)")
	jsonOut := fs.Bool("json", false, "emit the machine-readable report")
	benchOut := fs.Bool("bench", false, "emit go-bench lines (for tools/benchjson)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := ichannels.RunStoreBench(ichannels.StoreBenchOptions{Entries: *n, Reads: *reads, Dir: *dir})
	if err != nil {
		return err
	}
	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	case *benchOut:
		fmt.Printf("BenchmarkStoreWrite %d %.0f ns/op %.1f entries_per_sec\n",
			rep.Entries, rep.WriteNSPerOp, rep.WriteEntriesPerSec)
		fmt.Printf("BenchmarkStoreWarmRead %d %.0f ns/op %.0f p95_ns\n",
			rep.Reads, rep.ReadNSPerOp, rep.ReadP95NS)
		fmt.Printf("BenchmarkStoreGC 1 %.0f ns/op\n", rep.GCNS)
	default:
		fmt.Printf("%12s %14s %14s %14s %12s\n", "entries", "write ns/op", "read ns/op", "read p95 ns", "gc ms")
		fmt.Printf("%12d %14.0f %14.0f %14.0f %12.1f\n",
			rep.Entries, rep.WriteNSPerOp, rep.ReadNSPerOp, rep.ReadP95NS, rep.GCNS/1e6)
	}
	return nil
}

// serveCmd runs the HTTP experiment server until interrupted.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	storeSpec := fs.String("store", "", "durable result store: a directory or a remote http(s) URL")
	cacheDir := fs.String("cache", "", "with a remote -store URL, keep a local read-through replica cache in this directory")
	worker := fs.Bool("worker", false, "additionally serve POST /v1/cells, the distributed sweep cell endpoint coordinators dispatch to")
	share := fs.Bool("share", false, "additionally serve the store's objects over GET/PUT /v1/store/{key} (requires -store)")
	gcEvery := fs.Duration("gc-every", 0, "run store retention on this interval (0 = never; requires -store)")
	gcMaxAge := fs.Duration("max-age", 0, "retention: remove intact entries older than this (0 = keep all ages)")
	gcMaxBytes := fs.Int64("max-bytes", 0, "retention: evict oldest entries until the store fits this many bytes, and reject larger uploads (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *share && *storeSpec == "" {
		return errors.New("serve: -share needs -store DIR|URL (no corpus to share)")
	}
	if *gcEvery > 0 && *storeSpec == "" {
		return errors.New("serve: -gc-every needs -store DIR|URL (no corpus to retain)")
	}
	st, err := openStore("serve", *storeSpec, *cacheDir)
	if err != nil {
		return err
	}
	defer ichannels.CloseResultStore(st)
	api := ichannels.NewAPIServer(ichannels.ServerOptions{
		Store: st, Worker: *worker, ShareStore: *share,
		GCEvery: *gcEvery, GCMaxAge: *gcMaxAge, GCMaxBytes: *gcMaxBytes,
	})
	defer api.Close()
	handler := api.Handler()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), shutdownSignals...)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	routes := "GET /v1/experiments, GET /v1/scenarios/schema, POST /v1/scenarios, GET /v1/sweeps/schema, POST /v1/sweeps, GET /v1/stats"
	if *worker {
		routes += ", POST /v1/cells"
	}
	if *share {
		routes += ", GET/PUT /v1/store/{key}"
	}
	fmt.Fprintf(os.Stderr, "ichannels: serving the scenario API on http://%s (%s)\n", ln.Addr(), routes)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}

func runExp(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("exp: missing experiment id (try 'ichannels list')")
	}
	id := args[0]
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	run := func(id string) error {
		rep, err := ichannels.RunExperiment(id, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(rep)
		return nil
	}
	if id == "all" {
		for _, e := range ichannels.Experiments() {
			if err := run(e.ID); err != nil {
				return err
			}
		}
		return nil
	}
	return run(id)
}

func demo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	kindName := fs.String("kind", "cores",
		"channel kind: "+strings.Join(ichannels.ChannelKindNames(), ", "))
	msg := fs.String("msg", "IChannels", "message to exfiltrate")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var kind ichannels.ChannelKind
	switch *kindName {
	case "thread":
		kind = ichannels.SameThread
	case "smt":
		kind = ichannels.SMT
	case "cores":
		kind = ichannels.CrossCore
	default:
		if ichannels.ChannelKindDescribe(*kindName) != "" {
			// An adopted family (retire, clockmod): run it through the
			// scenario path, which knows how to build and decode it.
			return demoScenario(*kindName, *msg, *seed)
		}
		return fmt.Errorf("demo: unknown kind %q (%s)", *kindName,
			strings.Join(ichannels.ChannelKindNames(), ", "))
	}

	proc := ichannels.CannonLake8121U()
	m, err := ichannels.NewMachine(ichannels.MachineOptions{
		Processor:       proc,
		Noise:           ichannels.NoiseWithRates(500, 100),
		TSCJitterCycles: 200,
		Seed:            *seed,
	})
	if err != nil {
		return err
	}
	ch, err := ichannels.NewChannel(m, ichannels.DefaultChannelParams(kind, proc))
	if err != nil {
		return err
	}
	if _, err := ch.Calibrate(8); err != nil {
		return err
	}
	cal := ch.Calibration()
	fmt.Printf("%v on %s: calibrated, level means %v cycles (gap %.0f)\n",
		kind, proc.Name, cal.MeanCycles, cal.Gap)

	frame, err := ichannels.EncodeFrame([]byte(*msg), 7)
	if err != nil {
		return err
	}
	res, err := ch.Transmit(frame)
	if err != nil {
		return err
	}
	payload, corrected, err := ichannels.DecodeFrame(res.DecodedBits, 7)
	if err != nil {
		return fmt.Errorf("frame unrecoverable after channel errors: %w", err)
	}
	fmt.Printf("sent %d bits in %v (%.0f b/s raw, channel BER %.4f, %d bits ECC-corrected)\n",
		len(frame), res.Elapsed, res.ThroughputBPS, res.BER, corrected)
	fmt.Printf("exfiltrated message: %q\n", string(payload))
	return nil
}

// demoScenario exfiltrates the message over a registry channel family
// (retire, clockmod) via the declarative scenario path.
func demoScenario(kind, msg string, seed int64) error {
	res, err := ichannels.RunScenario(context.Background(), ichannels.Scenario{
		Role:    "channel",
		Kind:    kind,
		Payload: msg,
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s (%s; %s): calibration gap %.0f cycles\n",
		kind, ichannels.ChannelKindDescribe(kind), ichannels.ChannelKindSource(kind),
		res.Extra["calibration_gap_cycles"])
	fmt.Printf("sent %d bits in %.0f µs (%.0f b/s raw, channel BER %.4f)\n",
		res.Bits, res.ElapsedSimUS, res.ThroughputBPS, res.BER)
	if res.DecodedPayload != "" {
		fmt.Printf("exfiltrated message: %q\n", res.DecodedPayload)
	} else {
		fmt.Printf("message not recovered (notes: %v)\n", res.Notes)
	}
	return nil
}

// traceCmd records a Fig. 9-style NI-DAQ trace of one PHI burst and writes
// it as CSV to stdout for offline plotting.
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	procName := fs.String("proc", "Cannon Lake", "processor profile name")
	className := fs.String("class", "256b_Heavy", "instruction class of the burst")
	ghz := fs.Float64("ghz", 1.4, "requested frequency in GHz")
	durUS := fs.Float64("us", 60, "trace duration in microseconds")
	sampleNS := fs.Float64("sample", 200, "sampling interval in nanoseconds")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	proc, err := ichannels.ProcessorByName(*procName)
	if err != nil {
		return err
	}
	cls, err := ichannels.ParseClass(*className)
	if err != nil {
		return err
	}
	m, err := ichannels.NewMachine(ichannels.MachineOptions{
		Processor:     proc,
		RequestedFreq: ichannels.Hertz(*ghz) * ichannels.GHz,
		Cores:         1,
		Seed:          *seed,
	})
	if err != nil {
		return err
	}
	rec, err := ichannels.NewRecorder(m, ichannels.Duration(*sampleNS)*ichannels.Nanosecond)
	if err != nil {
		return err
	}
	rec.Start()
	agent := ichannels.AgentFunc{AgentName: "trace", Fn: func(env *ichannels.AgentEnv, prev *ichannels.Result) ichannels.Action {
		if prev == nil {
			return ichannels.Exec(ichannels.KernelFor(cls), 200)
		}
		return ichannels.StopAction()
	}}
	if _, err := m.Bind(0, 0, agent); err != nil {
		return err
	}
	m.RunFor(ichannels.Duration(*durUS) * ichannels.Microsecond)
	rec.Stop()
	return rec.WriteCSV(os.Stdout)
}

func spy(args []string) error {
	fs := flag.NewFlagSet("spy", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	proc := ichannels.CannonLake8121U()
	m, err := ichannels.NewMachine(ichannels.MachineOptions{Processor: proc, Seed: *seed})
	if err != nil {
		return err
	}
	s, err := ichannels.NewSpy(m, ichannels.SMT)
	if err != nil {
		return err
	}
	if err := s.Calibrate(6); err != nil {
		return err
	}
	// A "victim" alternating between instruction widths; the spy on the
	// SMT sibling identifies each window's width.
	victim := []ichannels.Class{
		ichannels.Vec256Heavy, ichannels.Scalar64, ichannels.Vec512Heavy,
		ichannels.Vec128Heavy, ichannels.Vec256Heavy, ichannels.Scalar64,
		ichannels.Vec512Heavy, ichannels.Vec512Heavy, ichannels.Vec128Heavy,
		ichannels.Scalar64,
	}
	res, err := s.Infer(victim)
	if err != nil {
		return err
	}
	fmt.Println("victim executed → spy inferred:")
	for i := range res.Actual {
		mark := "✓"
		if res.Actual[i] != res.Inferred[i] {
			mark = "✗"
		}
		fmt.Printf("  %-12s → %-12s %s\n", res.Actual[i], res.Inferred[i], mark)
	}
	fmt.Printf("accuracy: %.0f%%\n", res.Accuracy*100)
	return nil
}
