package ichannels_test

// Chaos conformance suite: drive the real CLI's shared-store tier
// through a fault-injecting proxy (internal/chaos) and assert the
// repo's determinism contract from the failure side — whatever the
// proxy does to the wire (flaked connections, 5xx bursts, corrupted
// bodies, partitions, a dead server), a sweep exits 0 with
// byte-identical output, corrupt bytes are never cached, and the
// degradation is visible in the store-tier counters, never the result
// bytes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"testing"

	"ichannels/internal/chaos"
)

// runCLIStderr execs the built binary like runCLI but also returns the
// stderr text, where the dist/store-tier diagnostics live.
func runCLIStderr(t *testing.T, args ...string) ([][]byte, string) {
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
	return lines, stderr.String()
}

// remoteTier is the `store remote:` stderr line — the retry/breaker
// counters a run against a remote corpus reports.
type remoteTier struct {
	attempts, retries, transient, permanent int
	breakerOpens, fastFails                 int
	state                                   string
}

func parseRemoteTier(t *testing.T, stderr string) remoteTier {
	t.Helper()
	for _, ln := range strings.Split(stderr, "\n") {
		var rt remoteTier
		if _, err := fmt.Sscanf(ln, "store remote: %d attempts, %d retries, %d transient, %d permanent, %d breaker opens, %d fast fails, state %s",
			&rt.attempts, &rt.retries, &rt.transient, &rt.permanent,
			&rt.breakerOpens, &rt.fastFails, &rt.state); err == nil {
			return rt
		}
	}
	t.Fatalf("no `store remote:` line in stderr:\n%s", stderr)
	return remoteTier{}
}

// storeErrSplit is the `store errors:` stderr line — the engine's
// classification of degraded store operations.
type storeErrSplit struct{ transient, permanent int }

func parseStoreErrors(t *testing.T, stderr string) storeErrSplit {
	t.Helper()
	for _, ln := range strings.Split(stderr, "\n") {
		var se storeErrSplit
		if _, err := fmt.Sscanf(ln, "store errors: %d transient, %d permanent",
			&se.transient, &se.permanent); err == nil {
			return se
		}
	}
	t.Fatalf("no `store errors:` line in stderr:\n%s", stderr)
	return storeErrSplit{}
}

// replicaTier is the `store replica:` stderr line — the read-through
// cache counters a -cache run reports.
type replicaTier struct {
	localHits, fills, remoteMisses, corrupt int
	flushed, flushErrors, dropped           int
}

func parseReplicaTier(t *testing.T, stderr string) replicaTier {
	t.Helper()
	for _, ln := range strings.Split(stderr, "\n") {
		var rt replicaTier
		if _, err := fmt.Sscanf(ln, "store replica: %d local hits, %d fills, %d remote misses, %d corrupt, %d flushed, %d flush errors, %d dropped",
			&rt.localHits, &rt.fills, &rt.remoteMisses, &rt.corrupt,
			&rt.flushed, &rt.flushErrors, &rt.dropped); err == nil {
			return rt
		}
	}
	t.Fatalf("no `store replica:` line in stderr:\n%s", stderr)
	return replicaTier{}
}

// remoteEntryCount lists a share server's corpus over the wire.
func remoteEntryCount(t *testing.T, baseURL string) int {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// startChaos wraps a share server's URL in a fault-injecting proxy.
func startChaos(t *testing.T, target string, opts chaos.Options) (*chaos.Proxy, string) {
	t.Helper()
	opts.Target = target
	p, err := chaos.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	url, stop := p.Start()
	t.Cleanup(stop)
	return p, url
}

// TestChaosFlakyShareServer: the table6 sweep against a share server
// whose connections flake 20% of the time and answer 503 in periodic
// bursts. The retry layer absorbs it all: exit 0, byte-identical
// stream, and the damage shows up only as retry counters.
func TestChaosFlakyShareServer(t *testing.T) {
	host := startServe(t, "-store", t.TempDir(), "-share")
	p, url := startChaos(t, host.url, chaos.Options{
		Seed: 7, FlakeRate: 0.2, Burst5xx: 2, Burst5xxPeriod: 25,
	})

	args := []string{"sweep", "run", clusterSpec, "-ndjson", "-parallel", "4", "-store", url, "-resume"}
	cold, coldErr := runCLIStderr(t, args...)
	assertClusterStream(t, "chaos-flaky-cold", cold)

	warm, warmErr := runCLIStderr(t, args...)
	assertClusterStream(t, "chaos-flaky-warm", warm)

	// The proxy really injected faults, and the retry layer really
	// absorbed them — otherwise this test proves nothing.
	if s := p.Stats(); s.Flaked == 0 || s.Bursted == 0 {
		t.Errorf("proxy injected no faults: %+v", s)
	}
	for _, stderr := range []string{coldErr, warmErr} {
		rt := parseRemoteTier(t, stderr)
		if rt.retries == 0 {
			t.Errorf("no retries recorded against a flaky server: %+v", rt)
		}
		if rt.permanent != 0 {
			t.Errorf("flaked/5xx traffic misclassified as permanent: %+v", rt)
		}
	}
}

// TestChaosCorruptingShareServer: every GET from the corpus comes back
// with one flipped byte — a byzantine server. Envelope verification
// rejects every response (classified permanent, never retried), the
// cells recompute locally, the output is byte-identical, and not one
// corrupt envelope lands in the -cache replica.
func TestChaosCorruptingShareServer(t *testing.T) {
	storeDir := t.TempDir()
	host := startServe(t, "-store", storeDir, "-share")

	// Populate the corpus through the clean path first.
	cold := runCLI(t, "sweep", "run", clusterSpec, "-ndjson", "-parallel", "4", "-store", host.url)
	assertClusterStream(t, "chaos-corrupt-populate", cold)

	_, url := startChaos(t, host.url, chaos.Options{Seed: 11, CorruptRate: 1})
	cacheDir := t.TempDir()
	warm, stderr := runCLIStderr(t, "sweep", "run", clusterSpec, "-ndjson", "-parallel", "4",
		"-store", url, "-cache", cacheDir, "-resume")
	assertClusterStream(t, "chaos-corrupt", warm)
	for i, ln := range warm[:len(warm)-1] {
		if wl, _ := parseWireLine(t, ln); wl.Cached {
			t.Errorf("chaos-corrupt cell %d served from a byzantine corpus", i)
		}
	}

	cells, _, _ := clusterReference(t)
	// Corruption is caught by envelope verification above the retry
	// layer: the wire looked healthy (no retries), the engine saw
	// permanent failures, and the replica rejected every fetched body.
	rt := parseRemoteTier(t, stderr)
	if rt.retries != 0 {
		t.Errorf("corrupt envelopes must never be retried: %+v", rt)
	}
	se := parseStoreErrors(t, stderr)
	if se.permanent != len(cells) || se.transient != 0 {
		t.Errorf("store errors %+v: want %d permanent (one rejected read per cell)", se, len(cells))
	}
	ct := parseReplicaTier(t, stderr)
	if ct.corrupt != len(cells) || ct.fills != 0 {
		t.Errorf("replica tier %+v: want every remote read rejected, zero fills", ct)
	}

	// The recomputed results were cached locally; the corrupt remote
	// bytes never were. The replica must verify clean and hold the
	// full corpus.
	ls := runCLI(t, "store", "verify", cacheDir)
	verdict := string(ls[len(ls)-1])
	if !strings.HasPrefix(verdict, fmt.Sprintf("%d entries", len(cells))) || !strings.Contains(verdict, "0 corrupt") {
		t.Errorf("cache verify after byzantine reads: %q", verdict)
	}
}

// TestChaosPartitionAndHeal: one sweep runs against a fully
// partitioned share server — every cell degrades to local compute and
// the run still exits 0 byte-identical. The partition heals, and the
// next sweep reconnects through the same proxy and populates the
// corpus normally.
func TestChaosPartitionAndHeal(t *testing.T) {
	host := startServe(t, "-store", t.TempDir(), "-share")
	p, url := startChaos(t, host.url, chaos.Options{Seed: 3})
	p.Partition(0)

	args := []string{"sweep", "run", clusterSpec, "-ndjson", "-parallel", "4", "-store", url, "-resume"}
	during, stderr := runCLIStderr(t, args...)
	assertClusterStream(t, "chaos-partitioned", during)
	if s := p.Stats(); s.Partitioned == 0 || s.Forwarded != 0 {
		t.Errorf("partition was not airtight: %+v", s)
	}
	rt := parseRemoteTier(t, stderr)
	if rt.transient == 0 {
		t.Errorf("a partition must register transient failures: %+v", rt)
	}
	if rt.permanent != 0 {
		t.Errorf("a partition misclassified as permanent: %+v", rt)
	}

	// Heal and run again: the degraded tier was wall-clock damage only,
	// and the reconnected run fills the corpus over the same proxy.
	p.Heal()
	after, afterErr := runCLIStderr(t, args...)
	assertClusterStream(t, "chaos-healed", after)
	if s := p.Stats(); s.Forwarded == 0 {
		t.Errorf("no traffic reconnected after the heal: %+v", s)
	}
	if rt := parseRemoteTier(t, afterErr); rt.state != "closed" {
		t.Errorf("healed run ended with breaker state %q, want closed: %+v", rt.state, rt)
	}
}

// TestChaosDeadShareServer: the -store URL points at a closed port.
// Every cell recomputes locally, the circuit breaker turns the dead
// host into fast-fails instead of per-cell timeouts, and the sweep
// still exits 0 with byte-identical output.
func TestChaosDeadShareServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	lines, stderr := runCLIStderr(t, "sweep", "run", clusterSpec, "-ndjson", "-parallel", "4",
		"-store", deadURL, "-resume")
	assertClusterStream(t, "chaos-dead", lines)

	rt := parseRemoteTier(t, stderr)
	if rt.breakerOpens == 0 || rt.fastFails == 0 {
		t.Errorf("a dead server must open the breaker and fast-fail: %+v", rt)
	}
	if rt.permanent != 0 {
		t.Errorf("connection refusals misclassified as permanent: %+v", rt)
	}
}

// TestScenarioRunReportsDegradedStore: `scenario run` against a -store
// URL on a closed port still exits 0 with the bytes a store-less run
// prints, and reports the degradation on stderr through the same store
// lines `sweep run` prints: the breaker's activity on the remote leg,
// and one transient error for the failed read and one for the failed
// write of the single scenario.
func TestScenarioRunReportsDegradedStore(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	const spec = "examples/scenarios/specs/quickstart.json"
	want := runCLI(t, "scenario", "run", spec)
	got, stderr := runCLIStderr(t, "scenario", "run", spec, "-store", deadURL, "-resume")
	if !bytes.Equal(bytes.Join(got, []byte("\n")), bytes.Join(want, []byte("\n"))) {
		t.Errorf("degraded store changed the output:\nwant %s\ngot  %s", bytes.Join(want, []byte("\n")), bytes.Join(got, []byte("\n")))
	}
	if se := parseStoreErrors(t, stderr); se.transient != 2 || se.permanent != 0 {
		t.Errorf("store errors %+v: want 2 transient (one failed get, one failed put), 0 permanent", se)
	}
	if rt := parseRemoteTier(t, stderr); rt.attempts == 0 || rt.transient == 0 || rt.permanent != 0 {
		t.Errorf("a dead server must show as transient remote attempts: %+v", rt)
	}
}

// TestChaosReplicaCacheColdRestart is the replica-cache acceptance
// path: run once against a share server with -cache, restart the
// server cold (empty corpus, new port), and run again. Every cell is
// served from the local cache — the restarted server sees zero store
// reads — and the bytes match the serial reference.
func TestChaosReplicaCacheColdRestart(t *testing.T) {
	cacheDir := t.TempDir()
	hostA := startServe(t, "-store", t.TempDir(), "-share")

	first, firstErr := runCLIStderr(t, "sweep", "run", clusterSpec, "-ndjson", "-parallel", "4",
		"-store", hostA.url, "-cache", cacheDir)
	assertClusterStream(t, "replica-first", first)
	cells, _, _ := clusterReference(t)
	// The tier line snapshots mid-drain, so it cannot claim an exact
	// flush count — but nothing may have failed or been dropped.
	ft := parseReplicaTier(t, firstErr)
	if ft.flushErrors != 0 || ft.dropped != 0 {
		t.Errorf("first run replica tier %+v: flushes failed or dropped", ft)
	}
	// The CLI drains its flush queue before exiting; by now the full
	// corpus reached the share server.
	if n := remoteEntryCount(t, hostA.url); n != len(cells) {
		t.Errorf("share server holds %d entries after the first run, want %d", n, len(cells))
	}

	// Cold restart: the old process dies, the new one starts with an
	// empty corpus on a new port. Only the local cache survives.
	hostA.cmd.Process.Kill()
	hostA.cmd.Wait()
	hostB := startServe(t, "-store", t.TempDir(), "-share")

	second, secondErr := runCLIStderr(t, "sweep", "run", clusterSpec, "-ndjson", "-parallel", "4",
		"-store", hostB.url, "-cache", cacheDir, "-resume")
	assertClusterStream(t, "replica-second", second)
	for i, ln := range second[:len(second)-1] {
		if wl, _ := parseWireLine(t, ln); !wl.Cached {
			t.Errorf("replica-second cell %d recomputed despite a warm cache", i)
		}
	}
	st := parseReplicaTier(t, secondErr)
	if st.localHits != len(cells) || st.fills != 0 || st.remoteMisses != 0 {
		t.Errorf("second run replica tier %+v: want all %d cells served locally", st, len(cells))
	}

	// Counter-assert the zero-network claim on the server's side too.
	resp, err := http.Get(hostB.url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Store *struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store == nil {
		t.Fatal("restarted server reports no store block")
	}
	if stats.Store.Hits != 0 || stats.Store.Misses != 0 {
		t.Errorf("restarted server saw store traffic (hits=%d misses=%d); the cache leaked reads",
			stats.Store.Hits, stats.Store.Misses)
	}
}
