// Command ichannels regenerates the paper's figures and tables, runs
// scenarios and sweeps, serves the scenario API over HTTP, and maintains
// the result store. Every verb that simulates a cell runs scenarios:
// run and exp run experiment-role specs, demo one channel-role spec and
// spy one spy-role spec. Only trace drives a machine directly, because
// it records a waveform, not a cell. `ichannels help` lists the verbs
// and their flags.
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
  ichannels exp <id>|all [-seed N]    regenerate paper figures/tables (experiment-role scenarios)
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
                                      exfiltrate S as a channel-role scenario (ECC framing, OS noise)
  ichannels spy [-seed N]             run one spy-role scenario (SMT sibling) and print each window
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

// splitFilesAndFlags separates positional arguments (file paths, where
// "-" is stdin, or ids) from flags, accepting them in any order, and
// parses the flags into fs — the one arg loop every verb but serve uses.
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
			data, err := readSpecFile(f)
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
	rf := addRunFlags(fs, "scenarios")
	positional, err := splitFilesAndFlags(cmd, args, fs)
	if err != nil {
		return err
	}
	specs, err := load(positional)
	if err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	ctx, st, done, err := rf.start(cmd)
	if err != nil {
		return err
	}
	defer done()
	batch, err := ichannels.RunScenarios(ctx, ichannels.ScenarioBatchOptions{
		Scenarios: specs, BaseSeed: rf.seed, Parallel: rf.parallel, Store: st,
	})
	if err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	switch {
	case rf.json:
		err = batch.WriteJSON(os.Stdout)
	case rf.ndjson:
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

// runFlags are the flags every batch verb (run, scenario run, sweep run)
// shares.
type runFlags struct {
	parallel     int
	seed         int64
	json, ndjson bool
	store, cache string
	resume       bool
}

// addRunFlags registers the shared batch flags on fs. noun names what
// the verb runs ("scenarios" or "cells") in their help text.
func addRunFlags(fs *flag.FlagSet, noun string) *runFlags {
	rf := &runFlags{}
	fs.IntVar(&rf.parallel, "parallel", runtime.GOMAXPROCS(0), "worker-pool size")
	fs.Int64Var(&rf.seed, "seed", 1, "base seed; 0 means the default, 1 ("+noun+" that pin no seed derive theirs from it)")
	fs.BoolVar(&rf.json, "json", false, "emit a machine-readable JSON document instead of text")
	fs.BoolVar(&rf.ndjson, "ndjson", false, "emit one JSON outcome per line (the HTTP v1 framing)")
	fs.StringVar(&rf.store, "store", "", "persist results to this store directory or remote URL")
	fs.StringVar(&rf.cache, "cache", "", "with a remote -store URL, keep a local read-through replica cache in this directory")
	fs.BoolVar(&rf.resume, "resume", false, "serve "+noun+" the store already holds instead of recomputing them")
	return rf
}

// start checks the parsed batch flags (-json and -ndjson exclude each
// other, -seed follows the seed rule) and opens what the run needs: its
// store and a context that shutdownSignals cancel. -store alone
// persists but recomputes everything (re-verifying determinism), -store
// with -resume serves already-materialized results. done must run after
// the run drains: it seals packed segments and drains the replica flush
// queue.
func (rf *runFlags) start(cmd string) (ctx context.Context, st ichannels.ResultStore, done func(), err error) {
	if rf.json && rf.ndjson {
		return nil, nil, nil, fmt.Errorf("%s: give either -json or -ndjson, not both", cmd)
	}
	if err := resolveSeed(cmd, &rf.seed); err != nil {
		return nil, nil, nil, err
	}
	if rf.resume && rf.store == "" {
		return nil, nil, nil, fmt.Errorf("%s: -resume needs -store DIR|URL (nothing to resume from)", cmd)
	}
	opened, err := openStore(cmd, rf.store, rf.cache)
	if err != nil {
		return nil, nil, nil, err
	}
	st = opened
	if !rf.resume {
		st = ichannels.WriteOnlyStore(opened)
	}
	ctx, stop := signal.NotifyContext(context.Background(), shutdownSignals...)
	return ctx, st, func() {
		stop()
		ichannels.CloseResultStore(opened)
	}, nil
}

// readSpecFile reads one spec file; "-" reads stdin.
func readSpecFile(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
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
	data, err := readSpecFile(files[0])
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
	rf := addRunFlags(fs, "cells")
	refine := fs.Bool("refine", false, "require adaptive refinement: error unless the spec carries a refine block (a spec with one always runs refined)")
	workers := fs.String("workers", "", "comma-separated worker base URLs (ichannels serve -worker nodes) to dispatch cells to")
	sw, err := loadSweep("sweep run", args, fs)
	if err != nil {
		return err
	}
	if *refine && sw.Refine == nil {
		return errors.New("sweep run: -refine given but the spec has no refine block (see 'ichannels sweep schema')")
	}
	ctx, st, done, err := rf.start("sweep run")
	if err != nil {
		return err
	}
	defer done()
	opts := ichannels.SweepOptions{BaseSeed: rf.seed, Parallel: rf.parallel}.WithStore(st)
	var pool *ichannels.WorkerPool
	if *workers != "" {
		if pool, err = ichannels.NewWorkerPool(strings.Split(*workers, ","), ichannels.WorkerPoolOptions{}); err != nil {
			return fmt.Errorf("sweep run: %w", err)
		}
		opts.Runner = pool
	}
	if rf.ndjson {
		enc := json.NewEncoder(os.Stdout)
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
	case rf.ndjson:
		err = res.WriteAggregateLine(os.Stdout)
	case rf.json:
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
		if rf.store != "" {
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
		return writeIndented(specs)
	}
	for _, c := range cells {
		fmt.Printf("%4d  %-16s  %s\n", c.Index, c.Scenario.Hash(), c.Scenario.Name)
	}
	fmt.Printf("%d cells (hash %s, group by %s)\n", len(cells), sw.Hash(), strings.Join(sw.EffectiveGroupBy(), ", "))
	return nil
}

// writeIndented writes v to stdout as indented JSON.
func writeIndented(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
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

// storeCmd dispatches the result-store maintenance subcommands. Every
// directory subcommand but pack opens the packed store, which refuses a
// per-file corpus with a `store pack` hint.
func storeCmd(args []string) error {
	if len(args) < 1 {
		return errors.New("store: missing subcommand (ls, verify, gc, pack, or sync)")
	}
	sub := args[0]
	switch sub {
	case "sync":
		return storeSync(args[1:])
	case "ls", "verify", "gc", "pack":
	default:
		return fmt.Errorf("store: unknown subcommand %q (ls, verify, gc, pack, or sync)", sub)
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
	if sub == "pack" {
		rep, err := ichannels.PackStore(dirs[0])
		if err != nil {
			return err
		}
		if *jsonOut {
			return writeIndented(rep)
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
			return writeIndented(entries)
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
			if err := writeIndented(rep); err != nil {
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
			return writeIndented(rep)
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
		return writeIndented(rep)
	}
	fmt.Printf("synced %s -> %s: %d local, %d remote, %d pushed, %d push errors\n",
		dirs[0], *remote, rep.LocalEntries, rep.RemoteEntries, rep.Pushed, rep.PushErrors)
	if rep.PushErrors > 0 {
		return fmt.Errorf("store sync: %d pushes failed (re-run to retry)", rep.PushErrors)
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
	if _, err := parseVerb("serve", args, fs, nil, 0); err != nil {
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

// resolveSeed applies the one seed rule (scenario.ResolveSeed) to a -seed
// flag in place: 0 means the default seed, a negative seed is an error.
func resolveSeed(cmd string, seed *int64) error {
	s, err := scenario.ResolveSeed(*seed)
	if err != nil {
		return fmt.Errorf("%s: -%w", cmd, err)
	}
	*seed = s
	return nil
}

// parseVerb parses a verb's flags, given in any order among at most
// maxArgs positional arguments, and applies the seed rule to its -seed
// flag (nil for a verb without one).
func parseVerb(cmd string, args []string, fs *flag.FlagSet, seed *int64, maxArgs int) ([]string, error) {
	positional, err := splitFilesAndFlags(cmd, args, fs)
	if err != nil {
		return nil, err
	}
	if len(positional) > maxArgs {
		return nil, fmt.Errorf("%s: unexpected argument %q", cmd, positional[maxArgs])
	}
	if seed == nil {
		return positional, nil
	}
	return positional, resolveSeed(cmd, seed)
}

// runExp regenerates one registered experiment, or all of them in
// registry order, as experiment-role scenarios pinned to -seed, and
// prints each report.
func runExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed; 0 means the default, 1")
	ids, err := parseVerb("exp", args, fs, seed, 1)
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return errors.New("exp: missing experiment id (try 'ichannels list')")
	}
	specs := []ichannels.Scenario{ichannels.ScenarioFromExperiment(ids[0])}
	if ids[0] == "all" {
		specs = ichannels.AllExperimentScenarios()
	}
	for _, s := range specs {
		s.Seed = *seed
		res, err := ichannels.RunScenario(context.Background(), s)
		if err != nil {
			return fmt.Errorf("exp: %s: %w", s.Experiment, err)
		}
		fmt.Println(res.Report)
	}
	return nil
}

// demo exfiltrates a message over any registered channel kind as one
// channel-role scenario: ECC-framed payload, classic OS noise.
func demo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	kind := fs.String("kind", "cores", "channel kind: "+strings.Join(ichannels.ChannelKindNames(), ", "))
	msg := fs.String("msg", "IChannels", "message to exfiltrate")
	seed := fs.Int64("seed", 1, "simulation seed; 0 means the default, 1")
	if _, err := parseVerb("demo", args, fs, seed, 0); err != nil {
		return err
	}
	res, err := ichannels.RunScenario(context.Background(), ichannels.Scenario{
		Role:      "channel",
		Processor: "Cannon Lake",
		Kind:      *kind,
		Payload:   *msg,
		Coding:    &ichannels.ScenarioCoding{InterleaveDepth: 7},
		Noise:     &ichannels.ScenarioNoise{InterruptsPerSec: 500, CtxSwitchesPerSec: 100, TSCJitterCycles: 200},
		Seed:      *seed,
	})
	if err != nil {
		return fmt.Errorf("demo: %w", err)
	}
	fmt.Printf("%s (%s; %s) on %s: calibration gap %.0f cycles\n",
		res.Kind, ichannels.ChannelKindDescribe(res.Kind), ichannels.ChannelKindSource(res.Kind),
		res.Processor, res.Extra["calibration_gap_cycles"])
	fmt.Printf("sent %d bits in %.0f µs (%.0f b/s raw, channel BER %.4f, %.0f bits ECC-corrected)\n",
		res.Bits, res.ElapsedSimUS, res.ThroughputBPS, res.BER, res.Extra["ecc_corrected_bits"])
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
	seed := fs.Int64("seed", 1, "simulation seed; 0 means the default, 1")
	if _, err := parseVerb("trace", args, fs, seed, 0); err != nil {
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

// spy runs the instruction-class inference side channel as one
// spy-role scenario and prints each window's victim width beside the
// width the spy on the SMT sibling inferred.
func spy(args []string) error {
	fs := flag.NewFlagSet("spy", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed; 0 means the default, 1")
	if _, err := parseVerb("spy", args, fs, seed, 0); err != nil {
		return err
	}
	res, err := ichannels.RunScenario(context.Background(), ichannels.Scenario{
		Role: "spy", Processor: "Cannon Lake", Kind: "smt", Seed: *seed,
	})
	if err != nil {
		return fmt.Errorf("spy: %w", err)
	}
	actual, inferred := scenario.SpyWindows(res.SentBits), scenario.SpyWindows(res.DecodedBits)
	fmt.Println("victim executed → spy inferred:")
	for i := range actual {
		mark := "✓"
		if actual[i] != inferred[i] {
			mark = "✗"
		}
		fmt.Printf("  %-12s → %-12s %s\n", actual[i], inferred[i], mark)
	}
	fmt.Printf("accuracy: %.0f%%\n", res.Extra["accuracy"]*100)
	return nil
}
