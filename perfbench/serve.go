package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ichannels"
)

// serveSpecs are the scenarios the serve workload requests: every role,
// the paper's channel kinds and both adopted families, across the four
// processors. Each simulates in well under a millisecond.
var serveSpecs = []string{
	`{"role":"channel","kind":"thread","processor":"Haswell","bits":16}`,
	`{"role":"channel","kind":"smt","processor":"Cannon Lake","bits":16}`,
	`{"role":"channel","kind":"cores","processor":"Coffee Lake","bits":16}`,
	`{"role":"channel","kind":"retire","processor":"Cannon Lake","bits":16}`,
	`{"role":"channel","kind":"clockmod","processor":"Skylake-SP","bits":8}`,
	`{"role":"baseline","baseline":"turbocc","bits":8}`,
	`{"role":"baseline","baseline":"netspectre","bits":8}`,
	`{"role":"baseline","baseline":"dfscovert","bits":8}`,
	`{"role":"spy","kind":"cores"}`,
	`{"role":"mitigation-eval","kind":"cores","mitigation":"percore-vr","bits":8}`,
	`{"role":"mitigation-eval","kind":"smt","processor":"Haswell","mitigation":"secure-mode","bits":16}`,
}

const (
	// satClients is the closed loop's concurrency: enough outstanding
	// requests to keep the server busy on a few CPUs. Assumed.
	satClients = 4
	// capShare of the measured time is the closed-loop capacity phase;
	// the open loop runs for the rest.
	capShare = 0.5
	// loadShare is the open loop's mean arrival rate as a share of the
	// capacity the closed loop measured: light load, so latency reads
	// service time rather than queueing. An assumed operating point; at
	// half of capacity the p95 of five runs on a two-CPU host spread
	// (interquartile range) past 1.2x its median.
	loadShare = 0.1
	// hotPermille of requests repeat one of hotKeys (spec, seed) pairs
	// the set-up primed; the rest carry a fresh seed. An assumed mix.
	hotPermille = 900
	hotKeys     = 16
	// serverCacheEntries is the API server's default result-cache size.
	serverCacheEntries = 1024
	// serveSetups is how many times a run starts the server from scratch.
	serveSetups = 15
	// maxInFlight bounds outstanding open-loop requests; the generator
	// refuses (and counts as failed) arrivals beyond it rather than
	// queue them.
	maxInFlight = 1024
	// lateAfter is how late a send may run before it counts as late.
	lateAfter = time.Millisecond
)

// request is one scenario POST: the spec with its seed pinned.
type request struct {
	spec ichannels.Scenario
	body []byte
}

func newRequest(spec ichannels.Scenario, seed int64) (request, error) {
	spec.Seed = seed
	body, err := json.Marshal(spec)
	return request{spec: spec, body: body}, err
}

// want is the Go API's result bytes for the request — what the server
// must answer with.
func (r request) want(ctx context.Context) ([]byte, error) {
	res, err := ichannels.RunScenario(ctx, r.spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// generator derives a run's request sequence from its seed.
type generator struct {
	seed  int64
	specs []ichannels.Scenario
	hot   []request
	// hotReply is the server's whole reply to a cached hit of each hot
	// key, which every later request for it must repeat byte for byte.
	hotReply [][]byte
	next     atomic.Int64 // index of the next request
	fresh    atomic.Int64 // fresh-seed requests taken
}

func newGenerator(seed int64) (*generator, error) {
	g := &generator{seed: seed}
	for _, s := range serveSpecs {
		specs, _, err := ichannels.ParseScenarioSpecs([]byte(s))
		if err != nil {
			return nil, err
		}
		g.specs = append(g.specs, specs[0])
	}
	for i := 0; i < hotKeys; i++ {
		r, err := newRequest(g.specs[i%len(g.specs)], splitmix(seed, 100+i))
		if err != nil {
			return nil, err
		}
		g.hot = append(g.hot, r)
	}
	return g, nil
}

// take returns the run's next request: a hot key, or a spec at a fresh
// seed.
func (g *generator) take() (*sent, error) {
	i := int(g.next.Add(1) - 1)
	u := uint64(splitmix(g.seed, 2_000_000+i))
	if u%1000 < hotPermille {
		h := int(u / 1000 % hotKeys)
		return &sent{req: g.hot[h], hot: h, want: g.hotReply[h]}, nil
	}
	g.fresh.Add(1)
	r, err := newRequest(g.specs[u/1000%uint64(len(g.specs))], splitmix(g.seed, 1_000_000+i))
	return &sent{req: r, hot: -1}, err
}

// sent is one request the load generator issued.
type sent struct {
	req     request
	hot     int    // index into the hot set, or -1 for a fresh seed
	want    []byte // the reply a hot key must get
	open    bool   // sent by the open loop
	due, at time.Time
	done    time.Time
	late    bool
	body    []byte // a fresh seed's reply, checked after the run
	wrong   bool
	err     error
}

// reply is the part of a scenario response the benchmark reads.
type reply struct {
	Cached    bool            `json:"cached"`
	ElapsedUS float64         `json:"elapsed_us"` // the server's simulation time
	Result    json.RawMessage `json:"result"`
}

func decodeReply(body []byte) (*reply, error) {
	var rep reply
	err := json.Unmarshal(body, &rep)
	return &rep, err
}

// sameResult reports whether a reply carries exactly the wanted bytes
// (the server indents its responses; the result itself must not differ).
func sameResult(rep *reply, want []byte) bool {
	var got bytes.Buffer
	return json.Compact(&got, rep.Result) == nil && bytes.Equal(got.Bytes(), want)
}

func runServe(ctx context.Context, cfg config) (*outcome, error) {
	g, err := newGenerator(cfg.seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	var p *serverProc
	runtime.GC() // no collection of the preparation's garbage runs during the timed set-ups
	for n := 0; n < serveSetups; n++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if p, err = startServer(filepath.Join(cfg.workDir, fmt.Sprintf("serve-%d", n)), cfg.trace); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0))
	}
	defer p.close()

	// Prime the hot set, so the run starts with it cached: a miss, then
	// the cached hit every later request for the key must repeat.
	g.hotReply = make([][]byte, hotKeys)
	for i, r := range g.hot {
		want, err := r.want(ctx)
		if err != nil {
			return nil, err
		}
		for n := 0; n < 2; n++ {
			body, err := p.post(r)
			if err != nil {
				return nil, fmt.Errorf("priming hot key %d: %w", i, err)
			}
			if rep, err := decodeReply(body); err != nil || !sameResult(rep, want) || rep.Cached != (n == 1) {
				return nil, fmt.Errorf("priming hot key %d: server reply differs from the Go API's result", i)
			}
			g.hotReply[i] = body
		}
	}

	// Warm up until the server's result cache is full, so that every run
	// measures the steady state in which each fresh result evicts one.
	warmEnd := time.Now().Add(warmup)
	closedLoop(p, g, func() bool { return time.Now().After(warmEnd) && g.fresh.Load() >= serverCacheEntries })
	var machinesBefore map[string]any
	if cfg.trace {
		machinesBefore = p.apiStats()
	}
	before, err := p.selfStats()
	if err != nil {
		return nil, err
	}
	capFor := time.Duration(capShare * float64(cfg.measure))
	capStart := time.Now()
	log := closedLoop(p, g, func() bool { return time.Since(capStart) >= capFor })
	capWall := time.Since(capStart)
	answered := 0
	for _, s := range log {
		if s.err == nil {
			answered++
		}
	}
	if answered == 0 {
		return nil, errors.New("the server answered no request")
	}
	o.cellsPerS = float64(answered) / capWall.Seconds()
	openLog, err := openLoop(p, g, loadShare*o.cellsPerS, cfg.measure-capFor, cfg.seed)
	if err != nil {
		return nil, err
	}
	log = append(log, openLog...)
	after, err := p.selfStats()
	if err != nil {
		return nil, err
	}
	o.allocated = after.Allocated - before.Allocated

	var lt layers
	var httpT time.Duration
	for _, s := range log {
		o.attempted++
		if s.err != nil {
			o.failed++
			continue
		}
		cached, elapsed := true, time.Duration(0)
		if s.hot < 0 {
			want, err := s.req.want(ctx)
			if err != nil {
				return nil, err
			}
			rep, err := decodeReply(s.body)
			s.wrong = err != nil || !sameResult(rep, want)
			cached, elapsed = rep.Cached, time.Duration(rep.ElapsedUS*float64(time.Microsecond))
		}
		if s.wrong {
			o.failed++
			o.wrong++
			continue
		}
		o.cells++
		if s.open {
			o.latencies = append(o.latencies, s.done.Sub(s.due))
			if s.late {
				lt.lateSends++
			}
		}
		if cached {
			lt.cached++
		} else {
			lt.computed++
			lt.compute += elapsed
			lt.computeDurs = append(lt.computeDurs, elapsed)
		}
		lt.lane += s.done.Sub(s.due)
		lt.queue += s.at.Sub(s.due)
		httpT += s.done.Sub(s.at)
	}
	if cfg.trace {
		m := p.apiStats()
		lt.machinesBuilt = machines(m, "constructed") - machines(machinesBefore, "constructed")
		lt.machinesUsed = machines(m, "reused") - machines(machinesBefore, "reused")
		handler := time.Duration(after.HandlerNS - before.HandlerNS)
		lt.store = time.Duration(after.StoreNS - before.StoreNS)
		lt.pipeline = handler - lt.compute - lt.store
		lt.http = httpT - handler
		lt.cellP50 = time.Duration(after.HandlerP50NS)
		lt.opLatencies = o.latencies
		o.layers = lt.metrics()
	}
	return o, nil
}

// closedLoop keeps satClients requests outstanding until done reports
// true and returns every request sent.
func closedLoop(p *serverProc, g *generator, done func() bool) []*sent {
	logs := make([][]*sent, satClients)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done() {
				s, err := g.take()
				if err != nil {
					s.err = err
				} else {
					s.due = time.Now()
					p.send(s)
				}
				logs[c] = append(logs[c], s)
			}
		}()
	}
	wg.Wait()
	var all []*sent
	for _, l := range logs {
		all = append(all, l...)
	}
	return all
}

// openLoop sends requests on a seeded Poisson schedule at rate per
// second for d, each at its due time whatever the server is doing.
func openLoop(p *serverProc, g *generator, rate float64, d time.Duration, seed int64) ([]*sent, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7e))
	var (
		log      []*sent
		wg       sync.WaitGroup
		inFlight = make(chan struct{}, maxInFlight)
	)
	defer wg.Wait()
	due := time.Now()
	end := due.Add(d)
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if !due.Before(end) {
			return log, nil
		}
		s, err := g.take()
		if err != nil {
			return nil, err
		}
		s.open, s.due = true, due
		log = append(log, s)
		sleepUntil(due)
		select {
		case inFlight <- struct{}{}:
		default:
			s.err = errors.New("refused: too many requests in flight")
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inFlight }()
			p.send(s)
		}()
	}
}

// serverProc is the server process of the serve workload and a client
// for it.
type serverProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	url    string
	client *http.Client
}

// startServer starts the server process on a fresh packed store in dir
// and waits until it listens.
func startServer(dir string, traced bool) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--serve-store", dir}
	if traced {
		args = append(args, "--trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{
		cmd:   cmd,
		stdin: stdin,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConns: maxInFlight, MaxIdleConnsPerHost: maxInFlight},
			Timeout:   30 * time.Second,
		},
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		p.close()
		return nil, fmt.Errorf("server process did not start: %w", err)
	}
	p.url = strings.TrimSpace(line)
	return p, nil
}

// close stops the server process by closing its standard input and
// waits for it to exit, killing it if it does not.
func (p *serverProc) close() error {
	p.client.CloseIdleConnections()
	p.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return errors.New("server process did not stop and was killed")
	}
}

// post sends one request and returns the reply body.
func (p *serverProc) post(r request) ([]byte, error) {
	resp, err := p.client.Post(p.url+"/v1/scenarios", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// send issues one request and records when it went out and when the
// reply was in. A hot key's reply is checked at once; a fresh seed's is
// kept to be checked after the run.
func (p *serverProc) send(s *sent) {
	s.at = time.Now()
	s.late = s.at.Sub(s.due) > lateAfter
	body, err := p.post(s.req)
	s.done = time.Now()
	switch {
	case err != nil:
		s.err = err
	case s.want != nil:
		s.wrong = !bytes.Equal(body, s.want)
	default:
		s.body = body
	}
}

// apiStats fetches the server's /v1/stats document (nil on failure).
func (p *serverProc) apiStats() map[string]any {
	var doc map[string]any
	if p.getJSON("/v1/stats", &doc) != nil {
		return nil
	}
	return doc
}

// machines reads one machine-pool counter from a /v1/stats document.
func machines(doc map[string]any, field string) int {
	m, _ := doc["machines"].(map[string]any)
	v, _ := m[field].(float64)
	return int(v)
}

// selfStats is what the server process measured of itself.
type selfStats struct {
	Allocated    uint64 `json:"allocated"`      // cumulative heap bytes
	HandlerNS    int64  `json:"handler_ns"`     // cumulative API handler time (traced)
	HandlerP50NS int64  `json:"handler_p50_ns"` // median handler call since the last fetch (traced)
	StoreNS      int64  `json:"store_ns"`       // cumulative result-store time (traced)
}

func (p *serverProc) selfStats() (selfStats, error) {
	var st selfStats
	err := p.getJSON("/perfbench/stats", &st)
	return st, err
}

func (p *serverProc) getJSON(path string, v any) error {
	resp, err := p.client.Get(p.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveChild is the serve workload's server process: the scenario API
// over loopback on a packed store in dir. It prints its URL as one line
// and serves until its standard input closes. GET /perfbench/stats
// reports its heap allocation and, when traced, the time its handler
// and its store took.
func serveChild(dir string, traced bool) error {
	st, err := ichannels.OpenPackedStore(dir)
	if err != nil {
		return err
	}
	var rs ichannels.ResultStore = st
	var ts *tracedStore
	if traced {
		ts = &tracedStore{inner: st}
		rs = ts
	}
	api := ichannels.NewAPIServer(ichannels.ServerOptions{Store: rs})
	var ht handlerTimes
	h := api.Handler()
	if traced {
		h = ht.wrap(h)
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/perfbench/stats", func(w http.ResponseWriter, _ *http.Request) {
		total, p50 := ht.take()
		json.NewEncoder(w).Encode(selfStats{
			Allocated: heapAllocated(), HandlerNS: int64(total), HandlerP50NS: int64(p50), StoreNS: int64(ts.total()),
		})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return err
	}
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Printf("http://%s\n", ln.Addr())

	io.Copy(io.Discard, os.Stdin)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = srv.Shutdown(ctx)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	api.Close()
	if cerr := ichannels.CloseResultStore(st); err == nil {
		err = cerr
	}
	return err
}

// handlerTimes times the API handler's calls.
type handlerTimes struct {
	mu    sync.Mutex
	total time.Duration
	durs  []time.Duration // since the last take
}

func (t *handlerTimes) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		t.mu.Lock()
		t.total += d
		t.durs = append(t.durs, d)
		t.mu.Unlock()
	})
}

// take returns the handler time so far and the median call since the
// last take.
func (t *handlerTimes) take() (total, p50 time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p50 = percentile(t.durs, 50)
	t.durs = t.durs[:0]
	return t.total, p50
}

// sleepUntil blocks until t. When the process is otherwise idle,
// time.Sleep wakes on the runtime's millisecond poll granularity, which
// would bill up to a millisecond of generator lateness to each request;
// nanosleep in the calling thread wakes within microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}
