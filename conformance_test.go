package ichannels_test

// Cross-surface conformance suite: for every checked-in example spec,
// the CLI (ichannels scenario run / sweep run -ndjson), the HTTP v1 API
// (POST /v1/scenarios, POST /v1/sweeps), and the Go API must emit
// byte-identical result envelopes for the same seed — with a cold
// store, a warm store, and across surfaces sharing one store. This is
// the determinism contract's one test that spans all three surfaces.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ichannels"
)

// cliOnce builds the real CLI binary once per test process; every
// conformance subtest execs it the way a user would. TestMain removes
// the build directory after the run.
var cliOnce struct {
	sync.Once
	dir  string
	path string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if cliOnce.dir != "" {
		os.RemoveAll(cliOnce.dir)
	}
	os.Exit(code)
}

func buildCLI(t *testing.T) string {
	t.Helper()
	cliOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ichannels-cli-")
		if err != nil {
			cliOnce.err = err
			return
		}
		cliOnce.dir = dir
		bin := filepath.Join(dir, "ichannels")
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/ichannels").CombinedOutput()
		if err != nil {
			cliOnce.err = fmt.Errorf("building CLI: %v\n%s", err, out)
			return
		}
		cliOnce.path = bin
	})
	if cliOnce.err != nil {
		t.Fatal(cliOnce.err)
	}
	return cliOnce.path
}

// runCLI execs the built binary and returns its stdout lines.
func runCLI(t *testing.T, args ...string) [][]byte {
	t.Helper()
	cmd := exec.Command(buildCLI(t), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ichannels %s: %v\nstderr: %s", strings.Join(args, " "), err, stderr.String())
	}
	var lines [][]byte
	for _, ln := range bytes.Split(stdout.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(ln)) > 0 {
			lines = append(lines, ln)
		}
	}
	return lines
}

// wireLine is the common shape of one outcome on any surface: the CLI
// batch NDJSON line, the HTTP batch/sweep NDJSON line, and the HTTP
// single-scenario response all carry seed, cached, and the result
// envelope.
type wireLine struct {
	Seed   int64           `json:"seed"`
	Cached bool            `json:"cached"`
	Error  json.RawMessage `json:"error,omitempty"`
	Result json.RawMessage `json:"result"`
}

// parseWireLine decodes and compacts one outcome line (the HTTP
// single-object response is indented; compaction only strips
// whitespace, never reorders fields).
func parseWireLine(t *testing.T, line []byte) (wireLine, []byte) {
	t.Helper()
	var wl wireLine
	if err := json.Unmarshal(line, &wl); err != nil {
		t.Fatalf("outcome line %s: %v", line, err)
	}
	if len(wl.Error) > 0 {
		t.Fatalf("outcome carries an error: %s", line)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, wl.Result); err != nil {
		t.Fatal(err)
	}
	return wl, buf.Bytes()
}

// goReference runs the specs through the Go API and returns the
// marshaled result bytes plus effective seeds, the reference every
// other surface must match.
func goReference(t *testing.T, specs []ichannels.Scenario) (results [][]byte, seeds []int64) {
	t.Helper()
	batch, err := ichannels.RunScenarios(context.Background(), ichannels.ScenarioBatchOptions{
		Scenarios: specs, BaseSeed: 1, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch.Results {
		r := &batch.Results[i]
		if r.Err != nil {
			t.Fatalf("go api: %s: %v", r.Scenario.Describe(), r.Err)
		}
		b, err := json.Marshal(r.Result)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, b)
		seeds = append(seeds, r.Seed)
	}
	return results, seeds
}

// assertSurface compares one surface's outcome lines against the Go
// reference and checks every line's cached marker.
func assertSurface(t *testing.T, surface string, lines [][]byte, want [][]byte, seeds []int64, wantCached bool) {
	t.Helper()
	if len(lines) != len(want) {
		t.Fatalf("%s: %d outcomes, want %d", surface, len(lines), len(want))
	}
	for i, ln := range lines {
		wl, res := parseWireLine(t, ln)
		if wl.Seed != seeds[i] {
			t.Errorf("%s outcome %d: seed %d, want %d", surface, i, wl.Seed, seeds[i])
		}
		if wl.Cached != wantCached {
			t.Errorf("%s outcome %d: cached=%v, want %v", surface, i, wl.Cached, wantCached)
		}
		if !bytes.Equal(res, want[i]) {
			t.Errorf("%s outcome %d result bytes differ:\n%s\nwant:\n%s", surface, i, res, want[i])
		}
	}
}

// postNDJSON posts body and returns the response's non-empty lines.
func postNDJSON(t *testing.T, ts *httptest.Server, path string, body []byte) [][]byte {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, buf.String())
	}
	var lines [][]byte
	for _, ln := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(ln)) > 0 {
			lines = append(lines, ln)
		}
	}
	return lines
}

// specFiles globs one example spec directory, failing if it is empty —
// a renamed directory must not silently skip the suite.
func specFiles(t *testing.T, pattern string) []string {
	t.Helper()
	files, err := filepath.Glob(pattern)
	if err != nil || len(files) == 0 {
		t.Fatalf("no spec files match %s (err=%v)", pattern, err)
	}
	return files
}

// TestConformanceScenarios: every checked-in scenario spec produces
// identical result bytes from the Go API, the CLI, and HTTP — cold
// store, warm store, and a server warming from the CLI's store.
func TestConformanceScenarios(t *testing.T) {
	for _, f := range specFiles(t, "examples/scenarios/specs/*.json") {
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			specs, isArray, err := ichannels.ParseScenarioSpecs(data)
			if err != nil {
				t.Fatal(err)
			}
			want, seeds := goReference(t, specs)

			storeDir := t.TempDir()
			args := []string{"scenario", "run", f, "-ndjson", "-parallel", "4", "-store", storeDir, "-resume"}
			cold := runCLI(t, args...)
			assertSurface(t, "cli-cold", cold, want, seeds, false)
			warm := runCLI(t, args...)
			assertSurface(t, "cli-warm", warm, want, seeds, true)

			// A fresh server sharing the CLI's store serves every
			// scenario from disk; a storeless server recomputes —
			// both must produce the same bytes.
			shared := httptest.NewServer(newStoreServer(t, storeDir))
			defer shared.Close()
			assertSurface(t, "http-warm", postScenarios(t, shared, data, isArray), want, seeds, true)
			coldSrv := httptest.NewServer(ichannels.NewAPIServer(ichannels.ServerOptions{}).Handler())
			defer coldSrv.Close()
			assertSurface(t, "http-cold", postScenarios(t, coldSrv, data, isArray), want, seeds, false)
		})
	}
}

// newStoreServer opens the result store in dir and serves the v1 API
// over it.
func newStoreServer(t *testing.T, dir string) http.Handler {
	t.Helper()
	st, err := ichannels.OpenPackedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return ichannels.NewAPIServer(ichannels.ServerOptions{Store: st}).Handler()
}

// postScenarios posts a spec payload to /v1/scenarios and returns one
// line per outcome (the single-object response becomes one line).
func postScenarios(t *testing.T, ts *httptest.Server, data []byte, isArray bool) [][]byte {
	t.Helper()
	lines := postNDJSON(t, ts, "/v1/scenarios", data)
	if !isArray {
		// The single-object response is one indented JSON document.
		return [][]byte{bytes.Join(lines, []byte("\n"))}
	}
	return lines
}

// TestConformanceSweeps: every checked-in sweep spec streams identical
// per-cell result bytes and a byte-identical trailing aggregate line
// from the Go API, the CLI, and HTTP, cold and warm.
func TestConformanceSweeps(t *testing.T) {
	for _, f := range specFiles(t, "examples/sweeps/specs/*.json") {
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := ichannels.ParseSweepSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			// Go API reference: per-cell result bytes in stream order,
			// the pass markers of a refined spec, plus the aggregate's
			// NDJSON framing.
			var want [][]byte
			var wantMarkers [][]byte
			var seeds []int64
			res, err := ichannels.RunSweep(context.Background(), sw, ichannels.SweepOptions{
				BaseSeed: 1, Parallel: 4,
				OnCell: func(o ichannels.SweepCellOutcome) error {
					if o.Err != nil {
						return o.Err
					}
					b, err := json.Marshal(o.Result)
					if err != nil {
						return err
					}
					want = append(want, b)
					seeds = append(seeds, o.Seed)
					return nil
				},
				OnPass: func(p ichannels.SweepPassStats) error {
					var buf bytes.Buffer
					if err := ichannels.WriteSweepPassLine(&buf, p); err != nil {
						return err
					}
					wantMarkers = append(wantMarkers, bytes.TrimRight(buf.Bytes(), "\n"))
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			var aggBuf bytes.Buffer
			if err := res.WriteAggregateLine(&aggBuf); err != nil {
				t.Fatal(err)
			}
			wantAgg := bytes.TrimRight(aggBuf.Bytes(), "\n")

			checkStream := func(surface string, lines [][]byte, cached bool) {
				t.Helper()
				// Refined sweeps interleave pass markers with cell
				// lines; split them out and compare each stream.
				var cells, markers [][]byte
				for _, ln := range lines {
					if bytes.HasPrefix(ln, []byte(`{"pass":`)) {
						markers = append(markers, ln)
					} else {
						cells = append(cells, ln)
					}
				}
				if len(markers) != len(wantMarkers) {
					t.Fatalf("%s: %d pass markers, want %d", surface, len(markers), len(wantMarkers))
				}
				for i, m := range markers {
					if !bytes.Equal(m, wantMarkers[i]) {
						t.Errorf("%s pass marker %d differs:\n%s\nwant:\n%s", surface, i, m, wantMarkers[i])
					}
				}
				if len(cells) != len(want)+1 {
					t.Fatalf("%s: %d lines, want %d cells + aggregate", surface, len(cells), len(want))
				}
				assertSurface(t, surface, cells[:len(cells)-1], want, seeds, cached)
				if agg := cells[len(cells)-1]; !bytes.Equal(agg, wantAgg) {
					t.Errorf("%s aggregate differs:\n%s\nwant:\n%s", surface, agg, wantAgg)
				}
			}

			storeDir := t.TempDir()
			args := []string{"sweep", "run", f, "-ndjson", "-parallel", "4", "-store", storeDir, "-resume"}
			checkStream("cli-cold", runCLI(t, args...), false)
			checkStream("cli-warm", runCLI(t, args...), true)

			shared := httptest.NewServer(newStoreServer(t, storeDir))
			defer shared.Close()
			checkStream("http-warm", postNDJSON(t, shared, "/v1/sweeps", data), true)
			coldSrv := httptest.NewServer(ichannels.NewAPIServer(ichannels.ServerOptions{}).Handler())
			defer coldSrv.Close()
			checkStream("http-cold", postNDJSON(t, coldSrv, "/v1/sweeps", data), false)
		})
	}
}

// timingLine matches the wall-clock lines of an indented CLI batch
// JSON document; the effective pool size is envelope, not payload.
var timingLine = regexp.MustCompile(`(?m)^\s*"(elapsed_us|parallel)": [0-9.e+-]+,\n`)

// TestConformanceRunAlias: `ichannels run ids…` is an alias of
// `scenario run` over the experiment-role specs of those ids — same
// JSON bytes once wall-clock is dropped — and its output does not
// depend on -parallel.
func TestConformanceRunAlias(t *testing.T) {
	specFile := filepath.Join(t.TempDir(), "experiments.json")
	spec := `[{"role":"experiment","experiment":"fig13"},{"role":"experiment","experiment":"table2"}]`
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout := func(args ...string) []byte {
		return bytes.Join(runCLI(t, args...), []byte("\n"))
	}
	var scrubbed [][]byte
	for _, par := range []string{"1", "4"} {
		alias := timingLine.ReplaceAll(stdout("run", "fig13", "table2", "-seed", "7", "-json", "-parallel", par), nil)
		direct := timingLine.ReplaceAll(stdout("scenario", "run", specFile, "-seed", "7", "-json", "-parallel", par), nil)
		if !bytes.Equal(alias, direct) {
			t.Errorf("-parallel %s: run and scenario run JSON differ:\n%s\nwant:\n%s", par, alias, direct)
		}
		if bytes.Contains(alias, []byte("elapsed_us")) {
			t.Fatalf("timing not scrubbed:\n%s", alias)
		}
		scrubbed = append(scrubbed, alias)
	}
	if !bytes.Equal(scrubbed[0], scrubbed[1]) {
		t.Error("run -json differs between -parallel 1 and -parallel 4")
	}
	if a, b := stdout("run", "fig13", "table2", "-seed", "7", "-parallel", "1"), stdout("run", "fig13", "table2", "-seed", "7", "-parallel", "4"); !bytes.Equal(a, b) {
		t.Errorf("run text differs between -parallel 1 and -parallel 4:\n%s\nvs:\n%s", a, b)
	}
}

// TestConformanceServeSIGTERMSealsStore: `serve -store DIR` stopped
// with SIGTERM — what service managers and container runtimes send —
// shuts down gracefully: exit status 0, and the active packed segment
// the request wrote into is sealed, so every segment has its index
// sidecar.
func TestConformanceServeSIGTERMSealsStore(t *testing.T) {
	storeDir := t.TempDir()
	srv := startServe(t, "-store", storeDir)
	spec := `{"role":"channel","kind":"cores","bits":8,"seed":424242}`
	resp, err := http.Post(srv.url+"/v1/scenarios", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"cached": false`)) {
		t.Fatalf("fresh-seed POST: status %d: %s", resp.StatusCode, body)
	}

	if err := srv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}

	segs, err := filepath.Glob(filepath.Join(storeDir, "segments", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written (err %v)", err)
	}
	for _, seg := range segs {
		if _, err := os.Stat(strings.TrimSuffix(seg, ".seg") + ".idx"); err != nil {
			t.Errorf("segment %s left unsealed: %v", filepath.Base(seg), err)
		}
	}
}

// TestConformanceSeedRule: every surface's base seed follows one rule —
// 0 means the default seed and a negative seed is an error. CLI -seed 0
// prints the -seed 1 aggregate, which is also what POST /v1/sweeps?seed=0
// streams; exp and demo print the same bytes at -seed 0 and -seed 1; and
// a negative -seed makes run, scenario run, sweep run, exp, demo, spy and
// trace exit non-zero.
func TestConformanceSeedRule(t *testing.T) {
	f := filepath.Join("examples", "sweeps", "specs", "crossfamily_kind_mitigation.json")
	data, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	last := func(lines [][]byte) []byte {
		t.Helper()
		if len(lines) == 0 {
			t.Fatal("no output lines")
		}
		return lines[len(lines)-1]
	}
	want := last(runCLI(t, "sweep", "run", f, "-ndjson", "-parallel", "2", "-seed", "1"))
	if got := last(runCLI(t, "sweep", "run", f, "-ndjson", "-parallel", "2", "-seed", "0")); !bytes.Equal(got, want) {
		t.Errorf("CLI -seed 0 aggregate differs from -seed 1:\n%s\nwant:\n%s", got, want)
	}
	srv := httptest.NewServer(ichannels.NewAPIServer(ichannels.ServerOptions{}).Handler())
	defer srv.Close()
	if got := last(postNDJSON(t, srv, "/v1/sweeps?seed=0", data)); !bytes.Equal(got, want) {
		t.Errorf("HTTP ?seed=0 aggregate differs from CLI -seed 1:\n%s\nwant:\n%s", got, want)
	}
	for _, args := range [][]string{{"exp", "fig13"}, {"demo", "-kind", "cores"}} {
		zero := bytes.Join(runCLI(t, slices.Concat(args, []string{"-seed", "0"})...), []byte("\n"))
		one := bytes.Join(runCLI(t, slices.Concat(args, []string{"-seed", "1"})...), []byte("\n"))
		if !bytes.Equal(zero, one) {
			t.Errorf("ichannels %s -seed 0 differs from -seed 1:\n%s\nwant:\n%s", strings.Join(args, " "), zero, one)
		}
	}
	for _, args := range [][]string{
		{"sweep", "run", f, "-seed", "-1"},
		{"scenario", "run", filepath.Join("examples", "scenarios", "specs", "quickstart.json"), "-seed", "-1"},
		{"run", "table2", "-seed", "-1"},
		{"exp", "fig13", "-seed", "-1"},
		{"demo", "-kind", "cores", "-seed", "-1"},
		{"spy", "-seed", "-1"},
		{"trace", "-seed", "-1"},
	} {
		if err := exec.Command(buildCLI(t), args...).Run(); err == nil {
			t.Errorf("ichannels %s exited 0; want a negative-seed error", strings.Join(args, " "))
		}
	}
}

// TestConformanceCLIVerbs: exp, demo and spy run scenarios and print
// from their results — exp prints exactly the report RunExperiment
// renders, demo recovers the message over every registered kind, spy
// reports its accuracy — and every single-run verb rejects a stray
// argument instead of ignoring it, whatever the order of its flags.
func TestConformanceCLIVerbs(t *testing.T) {
	exec1 := func(args ...string) (stdout, stderr string, err error) {
		cmd := exec.Command(buildCLI(t), args...)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		err = cmd.Run()
		return out.String(), errb.String(), err
	}
	rep, err := ichannels.RunExperiment("fig13", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"exp", "fig13", "-seed", "3"}, {"exp", "-seed", "3", "fig13"}} {
		got, stderr, err := exec1(args...)
		if err != nil {
			t.Fatalf("ichannels %s: %v\n%s", strings.Join(args, " "), err, stderr)
		}
		if want := rep.String() + "\n"; got != want {
			t.Errorf("ichannels %s:\n%s\nwant RunExperiment's report:\n%s", strings.Join(args, " "), got, want)
		}
	}
	for _, kind := range ichannels.ChannelKindNames() {
		out, stderr, err := exec1("demo", "-kind", kind)
		if err != nil || !strings.Contains(out, `exfiltrated message: "IChannels"`) {
			t.Errorf("demo -kind %s (err %v): message not recovered:\n%s%s", kind, err, out, stderr)
		}
	}
	if out, stderr, err := exec1("spy"); err != nil || !regexp.MustCompile(`(?m)^accuracy: \d+%$`).MatchString(out) {
		t.Errorf("spy (err %v): no accuracy line:\n%s%s", err, out, stderr)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"exp", "fig13", "fig6a"}, `exp: unexpected argument "fig6a"`},
		{[]string{"exp", "fig13", "-seed", "3", "fig6a"}, `exp: unexpected argument "fig6a"`},
		{[]string{"demo", "-kind", "cores", "junk"}, `demo: unexpected argument "junk"`},
		{[]string{"spy", "extra"}, `spy: unexpected argument "extra"`},
		{[]string{"trace", "junk"}, `trace: unexpected argument "junk"`},
	} {
		out, stderr, err := exec1(tc.args...)
		if err == nil || !strings.Contains(stderr, tc.want) {
			t.Errorf("ichannels %s: err %v, stderr %q; want a failure naming %s", strings.Join(tc.args, " "), err, stderr, tc.want)
		}
		if out != "" {
			t.Errorf("ichannels %s printed %q before rejecting its arguments", strings.Join(tc.args, " "), out)
		}
	}
}
