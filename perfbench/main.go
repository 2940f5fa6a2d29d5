// Command perfbench is the repository's end-to-end benchmark. It drives
// the ichannels Go facade the way its users do and prints one JSON
// result line.
//
// Workloads:
//
//   - cold: closed loop, one client. Each op is the Table 6 sweep of
//     examples/sweeps/specs (88 cells) with no result store, so every
//     cell is simulated on a fresh machine pool. Parallel 2.
//   - resume: closed loop, one client. Each op resumes the same sweep
//     from a packed corpus left by a killed sweep, killed the way the
//     repository's resume acceptance test kills one: a serial run stopped
//     after 3 of every 8 cells. Hits are read from the store, the rest is
//     simulated. The corpus is read-only during the run, so every op
//     resumes from the same state.
//   - serve: single-scenario POST /v1/scenarios requests against the API
//     server with a packed store, run in a child process so that its
//     allocations and timings are its own. After a warm-up that fills the
//     server's result cache, a closed loop of satClients measures the
//     server's capacity; then a seeded Poisson open loop offers loadShare
//     of that capacity and times each request from its due time. The
//     request mix is assumed, not measured: 90% repeat a hot set of 16
//     (memory-cache hits), 10% carry a fresh seed and are simulated and
//     persisted.
//
// Every op's output is checked: sweep aggregates against a serial
// reference run, server results against the Go API's bytes. The
// references are computed outside every timed section.
//
// End-to-end metrics (--trace 0): op latency p50/p95 (a sweep, or an
// open-loop request), cells delivered per second (sweep throughput, or
// the server's closed-loop capacity), heap bytes the program allocated
// per cell (the server process's own on serve), and set-up time: the
// median of several set-ups in the run, each timing only what the
// program does to get ready — read and parse the sweep spec; for resume
// also reopen the corpus; for serve start the server process until it
// listens. p95 rather than p99: on a shared two-CPU host the p99 of ten
// runs spread past any usable bound.
//
// Per-layer metrics (--trace 1) come from the engine's own per-cell
// times (SweepOptions.OnCell, the server's elapsed_us), a timing wrapper
// around the result store, and on serve a timing wrapper around the
// server handler. Shares (%) are of lane time: an op's duration times
// the cells it runs at once. The metric each should move:
//
//   - compute_p50_us, compute_pct, machines_*: the simulator and the
//     machine pool; latency and cells_per_s on cold, p95 on serve.
//   - store_pct, cell_p50_us: the result store; latency on resume.
//   - pipeline_pct: the sweep engine outside cells (dispatch, ordering,
//     aggregation), or the server handler outside simulation and store;
//     cold and resume latency, serve p50 and capacity.
//   - http_pct, queue_pct, late_sends: transport and the load
//     generator itself; serve p50. A rising queue_pct means the
//     generator, not the server, ran late.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// warmup is how long each workload runs unmeasured before timing starts,
// so lazy set-up and allocator growth are not billed to the first ops.
const warmup = time.Second

// config is one benchmark invocation.
type config struct {
	seed    int64
	measure time.Duration
	trace   bool
	workDir string // scratch directory for corpora, removed at exit
}

// outcome is what one workload run measured.
type outcome struct {
	setups    []time.Duration // one per set-up repetition
	latencies []time.Duration // one per completed measured op
	cellsPerS float64
	allocated uint64 // heap bytes the program allocated during the measured phase
	cells     int    // cells delivered by completed measured ops
	attempted int
	failed    int               // ops that errored, were refused, or returned wrong output
	wrong     int               // ops whose output differed from the reference
	layers    map[string]metric // trace runs only
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"cold":   runCold,
	"resume": runResume,
	"serve":  runServe,
}

func main() {
	workload := flag.String("workload", "", "cold, resume or serve")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured duration")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	serveStore := flag.String("serve-store", "", "internal: run as the serve workload's server process on this store")
	flag.Parse()
	if *serveStore != "" {
		if err := serveChild(*serveStore, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench server:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold|resume|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := benchmark(run, *workload, config{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func benchmark(run func(context.Context, config) (*outcome, error), workload string, cfg config) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	o, err := run(context.Background(), cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if len(o.latencies) == 0 || o.cells == 0 {
		return nil, fmt.Errorf("%s: no op completed", workload)
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops attempted, %d failed, %d wrong, %d cells, %.1f cells/s\n",
		workload, o.attempted, o.failed, o.wrong, o.cells, o.cellsPerS)
	fmt.Fprintf(os.Stderr, "%s: latency ms over %d ops: p50 %.3f, p90 %.3f, p95 %.3f, p99 %.3f, max %.3f\n",
		workload, len(o.latencies), ms(percentile(o.latencies, 50)), ms(percentile(o.latencies, 90)),
		ms(percentile(o.latencies, 95)), ms(percentile(o.latencies, 99)), ms(percentile(o.latencies, 100)))
	res := &result{Correct: o.wrong == 0, Attempted: o.attempted, Failed: o.failed}
	if cfg.trace {
		res.Metrics = o.layers
		return res, nil
	}
	res.Metrics = map[string]metric{
		"latency_p50_ms":     {ms(percentile(o.latencies, 50)), "ms"},
		"latency_p95_ms":     {ms(percentile(o.latencies, 95)), "ms"},
		"cells_per_s":        {o.cellsPerS, "1/s"},
		"alloc_kib_per_cell": {float64(o.allocated) / 1024 / float64(o.cells), "KiB"},
		"setup_s":            {percentile(o.setups, 50).Seconds(), "s"},
	}
	return res, nil
}

// percentile interpolates linearly between the closest ranks.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo == len(s)-1 {
		return s[lo]
	}
	return s[lo] + time.Duration((r-float64(lo))*float64(s[lo+1]-s[lo]))
}

// heapAllocated reads the process's cumulative heap allocation.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// splitmix derives the i-th well-mixed positive value from a seed.
func splitmix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}
