// Package ichannels is a simulator-backed reproduction of "IChannels:
// Exploiting Current Management Mechanisms to Create Covert Channels in
// Modern Processors" (Haj-Yahya et al., ISCA 2021).
//
// It provides:
//
//   - a deterministic, picosecond-resolution discrete-event simulator of a
//     modern client SoC's current-management subsystem (voltage regulators
//     with slew-limited ramps, a central PMU with multi-level voltage
//     guardbands and serialized transitions, per-core IDQ throttling, SMT,
//     AVX power gates, Iccmax/Vccmax protection, and a two-stage thermal
//     model), calibrated to the paper's three processors;
//   - the three IChannels covert channels (IccThreadCovert, IccSMTcovert,
//     IccCoresCovert), an instruction-class-inference side channel, and
//     the four baselines the paper compares against (NetSpectre, TurboCC,
//     DFScovert, PowerT);
//   - the paper's three mitigations (per-core VRs, improved throttling,
//     secure mode) and an evaluation harness;
//   - runners that regenerate every figure and table of the paper's
//     evaluation (RunExperiment);
//   - the Scenario API: one declarative, JSON-serializable spec for
//     every run path above, registered experiments included
//     (ScenarioFromExperiment); a parallel batch engine that executes
//     scenarios on a worker pool with per-scenario derived seeds
//     (RunScenario, RunScenarios); and an HTTP server exposing it as a
//     versioned v1 API with a (scenario, seed) result cache
//     (NewAPIServer).
//
// Determinism is a hard guarantee throughout: for a fixed seed the
// simulator, every experiment, and every batch (at any parallelism)
// reproduce byte-identical results. See docs/ARCHITECTURE.md.
//
// Quickstart:
//
//	proc := ichannels.CannonLake8121U()
//	m, _ := ichannels.NewMachine(ichannels.MachineOptions{Processor: proc, Seed: 1})
//	ch, _ := ichannels.NewChannel(m, ichannels.DefaultChannelParams(ichannels.CrossCore, proc))
//	ch.Calibrate(8)
//	res, _ := ch.Transmit([]int{1, 0, 1, 1, 0, 0, 1, 0})
//	fmt.Println(res.DecodedBits, res.ThroughputBPS)
package ichannels

import (
	"context"
	"fmt"
	"io"

	"ichannels/internal/baselines"
	"ichannels/internal/core"
	"ichannels/internal/dist"
	"ichannels/internal/ecc"
	"ichannels/internal/engine"
	"ichannels/internal/exp"
	"ichannels/internal/isa"
	"ichannels/internal/mitigate"
	"ichannels/internal/model"
	"ichannels/internal/scenario"
	"ichannels/internal/serve"
	"ichannels/internal/soc"
	"ichannels/internal/store"
	"ichannels/internal/sweep"
	"ichannels/internal/trace"
	"ichannels/internal/units"
)

// ---- Simulated machine ----

// Machine is a fully wired simulated system-on-chip.
type Machine = soc.Machine

// MachineOptions configures a Machine.
type MachineOptions = soc.Options

// NoiseConfig describes OS interrupt/context-switch injection.
type NoiseConfig = soc.NoiseConfig

// PowerState is an instantaneous electrical snapshot.
type PowerState = soc.PowerState

// Agent is a software context bound to a hardware thread.
type Agent = soc.Agent

// AgentFunc adapts a function to the Agent interface.
type AgentFunc = soc.AgentFunc

// AgentEnv is the execution context handed to agents.
type AgentEnv = soc.Env

// Action and Result are the agent protocol types.
type (
	Action = soc.Action
	Result = soc.Result
)

// Agent action constructors.
var (
	Exec       = soc.Exec
	SpinUntil  = soc.SpinUntil
	IdleFor    = soc.IdleFor
	StopAction = soc.Stop
)

// NewMachine builds a machine from options.
func NewMachine(opts MachineOptions) (*Machine, error) { return soc.New(opts) }

// NoiseWithRates builds a noise config with default event durations.
func NoiseWithRates(interruptsPerSec, ctxSwitchesPerSec float64) NoiseConfig {
	return soc.WithRates(interruptsPerSec, ctxSwitchesPerSec)
}

// ---- Processor profiles ----

// Processor is a calibrated processor profile.
type Processor = model.Processor

// The three parts characterized in the paper, plus the §6.4 server
// extension profile (extrapolated, not calibrated against published data).
var (
	Haswell4770K     = model.Haswell4770K
	CoffeeLake9700K  = model.CoffeeLake9700K
	CannonLake8121U  = model.CannonLake8121U
	XeonPlatinum8160 = model.XeonPlatinum8160
)

// Processors returns all calibrated profiles.
func Processors() []Processor { return model.All() }

// ProcessorByName looks up a profile by marketing or code name.
func ProcessorByName(name string) (Processor, error) { return model.ByName(name) }

// ---- Instruction model ----

// Class is an instruction computational-intensity class.
type Class = isa.Class

// Kernel is an instruction loop.
type Kernel = isa.Kernel

// The seven intensity classes (paper §4/§5.5).
const (
	Scalar64    = isa.Scalar64
	Vec128Light = isa.Vec128Light
	Vec128Heavy = isa.Vec128Heavy
	Vec256Light = isa.Vec256Light
	Vec256Heavy = isa.Vec256Heavy
	Vec512Light = isa.Vec512Light
	Vec512Heavy = isa.Vec512Heavy
)

// KernelFor returns the canonical loop kernel for a class.
func KernelFor(c Class) Kernel { return isa.KernelFor(c) }

// ParseClass converts a class name ("64b", "256b_Heavy", ...) to a Class.
func ParseClass(s string) (Class, error) { return isa.ParseClass(s) }

// ---- Covert channels (the paper's contribution) ----

// Channel is one configured IChannels covert channel.
type Channel = core.Channel

// ChannelKind selects the variant (SameThread, SMT, CrossCore).
type ChannelKind = core.Kind

// Channel variants.
const (
	SameThread = core.SameThread
	SMT        = core.SMT
	CrossCore  = core.CrossCore
)

// ChannelParams time-boxes covert transactions.
type ChannelParams = core.Params

// Calibration is a learned decode rule.
type Calibration = core.Calibration

// TransmitResult reports a covert transmission.
type TransmitResult = core.TransmitResult

// Symbol is a 2-bit covert symbol.
type Symbol = core.Symbol

// Spy is the §6.5 instruction-class-inference side channel.
type Spy = core.Spy

// NewChannel builds a covert channel on a machine.
func NewChannel(m *Machine, p ChannelParams) (*Channel, error) { return core.New(m, p) }

// DefaultChannelParams returns tuned transaction parameters for a kind on
// a processor.
func DefaultChannelParams(kind ChannelKind, p Processor) ChannelParams {
	return core.DefaultParams(kind, p)
}

// NewSpy builds the side-channel observer.
func NewSpy(m *Machine, kind ChannelKind) (*Spy, error) { return core.NewSpy(m, kind) }

// ---- Baselines ----

// Baseline channel implementations compared against in Fig. 12 / Table 2.
type (
	NetSpectre = baselines.NetSpectre
	TurboCC    = baselines.TurboCC
	DFScovert  = baselines.DFScovert
	PowerT     = baselines.PowerT
)

// Baseline constructors.
var (
	NewNetSpectre = baselines.NewNetSpectre
	NewTurboCC    = baselines.NewTurboCC
	NewDFScovert  = baselines.NewDFScovert
	NewPowerT     = baselines.NewPowerT
)

// ---- Mitigations ----

// Mitigation identifies one of the paper's §7 defenses.
type Mitigation = mitigate.Kind

// The mitigations of Table 1.
const (
	NoMitigation       = mitigate.None
	PerCoreVR          = mitigate.PerCoreVR
	ImprovedThrottling = mitigate.ImprovedThrottling
	SecureMode         = mitigate.SecureMode
)

// MitigationAssessment grades a channel under a mitigation.
type MitigationAssessment = mitigate.Assessment

// EvaluateMitigation attacks a mitigated machine and grades the outcome.
func EvaluateMitigation(k Mitigation, ch ChannelKind, p Processor, nBits int, seed int64) (*MitigationAssessment, error) {
	return mitigate.Evaluate(context.Background(), nil, k, ch.String(), p, nBits, seed,
		func(m *soc.Machine) (mitigate.Channel, error) { return core.New(m, core.DefaultParams(ch, p)) })
}

// MitigatedMachineOptions returns machine options with mitigation k
// applied (including the evaluation noise environment).
func MitigatedMachineOptions(k Mitigation, p Processor, seed int64) MachineOptions {
	return mitigate.MachineOptions(k, p, seed)
}

// ---- Coding (noise recovery, §6.3) ----

// Frame coding helpers: Hamming(7,4) + interleaving + CRC-8 framing.
var (
	EncodeFrame = ecc.EncodeFrame
	DecodeFrame = ecc.DecodeFrame
)

// ---- Measurement ----

// Recorder samples a machine like the paper's NI-DAQ card.
type Recorder = trace.Recorder

// NewRecorder creates a sampler with the given interval.
func NewRecorder(m *Machine, interval Duration) (*Recorder, error) {
	return trace.NewRecorder(m, interval)
}

// ---- Units ----

// Time and Duration are simulated picosecond timestamps/spans; Hertz is a
// frequency.
type (
	Time     = units.Time
	Duration = units.Duration
	Hertz    = units.Hertz
)

// Common duration and frequency constants.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second
	GHz         = units.GHz
	MHz         = units.MHz
)

// ---- Experiments ----

// Report is a regenerated figure/table.
type Report = exp.Report

// ExperimentInfo describes one registered experiment (ID, paper section,
// description).
type ExperimentInfo = exp.Experiment

// RunExperiment regenerates one of the paper's figures or tables by ID
// (fig6a…fig14c, sevenzip, table1, table2) with an explicit seed.
func RunExperiment(id string, seed int64) (*Report, error) { return exp.Run(id, seed) }

// Experiments lists the registered experiments in definition order.
func Experiments() []ExperimentInfo { return exp.Experiments() }

// ---- Scenario API (v1): one declarative spec for every run ----

// Scenario is the declarative, JSON-serializable description of one
// run: an IChannels channel transmission, a baseline channel, the side
// channel, a mitigation evaluation, or a registered experiment. The
// same spec executes identically from Go (RunScenario), the CLI
// (ichannels scenario run), and the wire (POST /v1/scenarios).
type Scenario = scenario.Scenario

// ScenarioResult is the normalized result envelope every scenario run
// produces (decoded bits, throughput, BER, timing, per-role extras).
type ScenarioResult = scenario.Result

// ScenarioNoise, ScenarioCoding and ScenarioParams are the spec's
// optional sub-objects.
type (
	ScenarioNoise  = scenario.Noise
	ScenarioCoding = scenario.Coding
	ScenarioParams = scenario.Params
)

// RunScenario validates and executes one scenario (spec seed, or
// scenario.DefaultSeed when unset). For a fixed (spec, seed) the
// result's JSON encoding is byte-identical across processes and
// transports.
func RunScenario(ctx context.Context, s Scenario) (*ScenarioResult, error) {
	return scenario.Run(ctx, s)
}

// ScenarioBatchOptions configures a batch of scenarios on the engine's
// worker pool.
type ScenarioBatchOptions = engine.ScenarioOptions

// ScenarioBatch is the outcome of a scenario batch run.
type ScenarioBatch = engine.ScenarioBatch

// RunScenarios executes scenarios on a worker pool with derived
// per-scenario seeds. For a fixed BaseSeed the results are
// byte-identical regardless of Parallel.
func RunScenarios(ctx context.Context, opts ScenarioBatchOptions) (*ScenarioBatch, error) {
	return engine.RunScenarios(ctx, opts)
}

// ScenarioFromExperiment wraps a registered experiment ID as a
// Scenario (the canned generator for the figure/table registry).
func ScenarioFromExperiment(id string) Scenario { return scenario.FromExperiment(id) }

// AllExperimentScenarios returns one experiment-role Scenario per
// registered experiment, in definition order.
func AllExperimentScenarios() []Scenario { return scenario.AllExperiments() }

// ScenarioSchemaJSON returns the machine-readable Scenario spec schema
// (the payload of GET /v1/scenarios/schema).
func ScenarioSchemaJSON() []byte { return scenario.SchemaJSON() }

// ChannelKindNames returns every registered channel kind in canonical
// order — the paper's three variants plus the adopted families — all
// valid for scenario roles channel and mitigation-eval.
func ChannelKindNames() []string { return scenario.ChannelKindNames() }

// SpyKindNames returns the channel kinds the spy role accepts.
func SpyKindNames() []string { return scenario.SpyKindNames() }

// BaselineNames returns every registered baseline channel name.
func BaselineNames() []string { return scenario.BaselineNames() }

// MitigationNames returns every canonical mitigation name.
func MitigationNames() []string { return scenario.MitigationNames() }

// ChannelKindSource returns the source-paper citation for a registered
// channel kind ("" for unknown names).
func ChannelKindSource(kind string) string { return scenario.KindSource(kind) }

// ChannelKindDescribe returns the one-line description of a registered
// channel kind ("" for unknown names).
func ChannelKindDescribe(kind string) string { return scenario.KindDescribe(kind) }

// ParseScenarioSpecs parses a JSON spec payload — one scenario object
// or a non-empty array — rejecting unknown fields and trailing data.
// The CLI and the HTTP v1 layer share this decoder, so a spec that one
// accepts the other does too.
func ParseScenarioSpecs(data []byte) (specs []Scenario, isArray bool, err error) {
	return scenario.ParseSpecs(data)
}

// ---- Result store: the durable (scenario hash, seed) corpus ----

// ResultStore is the pluggable persistence contract every execution
// layer accepts: results are content-addressed by (scenario hash,
// effective seed) and immutable by the determinism contract. Set it on
// ScenarioBatchOptions/ScenarioStreamOptions/SweepOptions (directly or
// via their WithStore methods) to make runs fetch-or-compute, or on
// ServerOptions.Store to put a durable tier under the server's cache.
type ResultStore = store.Store

// ResultStoreKey identifies one stored result.
type ResultStoreKey = store.Key

// StoreEntry, StoreVerifyReport and StoreGCReport are the maintenance
// views of a store directory (List, Verify, GC/GCWith).
type (
	StoreEntry        = store.Entry
	StoreVerifyReport = store.VerifyReport
	StoreGCReport     = store.GCReport
)

// StoreGCOptions bounds what PackedResultStore.GCWith retains: entries
// older than MaxAge are removed, then the oldest survivors are evicted
// until the corpus fits MaxBytes — the retention knobs
// `ichannels store gc -max-age -max-bytes` exposes for CI scratch
// corpora. Evicted results are recomputable on demand (determinism),
// so retention trades disk for recompute, never data.
type StoreGCOptions = store.GCOptions

// WriteOnlyStore returns a view of st whose reads always miss: runs
// persist every result but recompute all of them — how `-store`
// without `-resume` re-verifies determinism while (re)materializing
// the corpus.
func WriteOnlyStore(st ResultStore) ResultStore { return store.WriteOnly(st) }

// PackedResultStore is the directory ResultStore: checksummed envelopes
// packed into append-only segment files under DIR/segments with
// per-segment index sidecars, crash-safe rebuild, and live-entry
// compaction — plus the maintenance surface (List, Verify, GC/GCWith).
type PackedResultStore = store.Packed

// StorePackReport is the machine-readable result of `ichannels store pack`.
type StorePackReport = store.PackReport

// OpenResultStore opens the store behind every `-store`/`-cache` flag
// pair: a directory opens as a PackedResultStore (created if new); an
// http(s):// URL opens the corpus a `serve -store DIR -share` process
// exposes, with retry/backoff and a circuit breaker, and every read
// re-verified locally; a URL plus a non-empty cacheDir layers a
// read-through replica cache in cacheDir over that remote. A cacheDir
// with a directory spec is an error. A directory still holding the
// retired per-file layout is refused with an `ichannels store pack DIR`
// hint and left untouched.
func OpenResultStore(spec, cacheDir string) (ResultStore, error) {
	return store.OpenAuto(spec, cacheDir)
}

// CloseResultStore releases st's resources (segment handles, pending
// compaction, the replica flush queue) when it has any; stores without
// lifecycle are a no-op.
func CloseResultStore(st ResultStore) error { return store.CloseStore(st) }

// OpenPackedStore creates (if needed) and opens a store directory with
// its maintenance surface — what `ichannels store ls|verify|gc`
// open. Like OpenResultStore it refuses a per-file corpus.
func OpenPackedStore(dir string) (*PackedResultStore, error) { return store.OpenPacked(dir) }

// ---- Resilient shared-corpus tier ----

// StoreSyncReport describes one `store sync` reconcile pass.
type StoreSyncReport = store.SyncReport

// Tier counters the resilient store path exposes: retry/breaker
// activity on the remote leg, cache activity on the replica leg. The
// store owns them: a store with a remote behind it reports a
// StoreTierStats snapshot from its TierStats method, which GET
// /v1/stats and the CLI's store lines read.
type (
	StoreTierStats    = store.TierStats
	StoreRemoteStats  = store.RemoteStats
	StoreReplicaStats = store.ReplicaStats
)

// SyncStoreDir reconciles a local store directory against the remote
// corpus at baseURL: every local entry the remote lacks is pushed
// upstream. The recovery path after a partition or a remote wipe —
// `ichannels store sync` drives it.
func SyncStoreDir(ctx context.Context, dir, baseURL string) (*StoreSyncReport, error) {
	local, err := store.OpenPacked(dir)
	if err != nil {
		return nil, err
	}
	defer local.Close()
	r, err := store.OpenRemote(baseURL, nil)
	if err != nil {
		return nil, err
	}
	return store.SyncDirToRemote(ctx, local, r)
}

// PackStore migrates a corpus written in the retired per-file layout
// into packed segments in place. Idempotent and crash-resumable: each
// entry is removed only after its bytes land in a segment, and a re-run
// finishes whatever a crash left. It is the only path that still reads
// per-file entries.
func PackStore(dir string) (*StorePackReport, error) { return store.Pack(dir) }

// ---- Streaming execution ----

// ScenarioStreamOptions configures a streaming scenario run: scenarios
// are pulled lazily from Next and outcomes pushed in order to Emit,
// with memory bounded by the worker count and reorder window instead of
// the stream length.
type ScenarioStreamOptions = engine.StreamOptions

// ScenarioStreamStats summarizes a completed stream.
type ScenarioStreamStats = engine.StreamStats

// StreamScenarios executes a lazily produced scenario sequence on a
// worker pool with bounded memory, emitting outcomes in stream order.
// RunScenarios is its collect-all wrapper; sweeps are its main client.
func StreamScenarios(ctx context.Context, opts ScenarioStreamOptions) (*ScenarioStreamStats, error) {
	return engine.StreamScenarios(ctx, opts)
}

// ---- Sweep API: declarative parameter grids ----

// Sweep is the declarative description of a parameter grid: a base
// Scenario plus named axes (processor, kind, baseline, mitigation,
// bits, noise, coding, params) whose cross-product expands
// deterministically into cells — the paper's processors × kinds ×
// mitigations tables as one spec. The same spec executes identically
// from Go (RunSweep), the CLI (ichannels sweep run), and the wire
// (POST /v1/sweeps).
type Sweep = scenario.Sweep

// SweepAxes names the grid dimensions of a Sweep.
type SweepAxes = scenario.SweepAxes

// SweepFilter is one cell-exclusion rule of a Sweep.
type SweepFilter = scenario.SweepFilter

// SweepCell is one expanded grid point: the combined normalized
// scenario plus its axis coordinates.
type SweepCell = scenario.Cell

// SweepOptions configures a sweep run (seed, parallelism, streaming
// hook, and the Runner compute seam).
type SweepOptions = sweep.Options

// SweepCellOutcome is one completed cell streamed to
// SweepOptions.OnCell.
type SweepCellOutcome = sweep.CellOutcome

// SweepResult is a completed sweep: compact per-cell summaries plus
// the grouped aggregate table.
type SweepResult = sweep.Result

// SweepTable is the grouped aggregate (count and mean/min/max/p50/p95
// of BER, throughput, and simulated time per axis-subset group).
type SweepTable = sweep.Table

// RunSweep expands and executes a sweep, streaming cells through the
// engine worker pool with bounded memory and reducing them on the fly.
// For a fixed (sweep, BaseSeed) every per-cell result and the aggregate
// table are byte-identical at any parallelism.
func RunSweep(ctx context.Context, sw Sweep, opts SweepOptions) (*SweepResult, error) {
	return sweep.Run(ctx, sw, opts)
}

// ExpandSweep materializes a sweep's cells in expansion order without
// running them (each cell's Scenario is normalized and validated).
func ExpandSweep(sw Sweep) ([]SweepCell, error) { return sw.Expand() }

// ParseSweepSpec parses one JSON sweep object, rejecting unknown fields
// and trailing data — the decoder the CLI and HTTP v1 layer share.
func ParseSweepSpec(data []byte) (Sweep, error) { return scenario.ParseSweep(data) }

// SweepSchemaJSON returns the machine-readable Sweep spec schema (the
// payload of GET /v1/sweeps/schema).
func SweepSchemaJSON() []byte { return scenario.SweepSchemaJSON() }

// SweepCellLineJSON is the NDJSON wire form of one streamed sweep cell.
type SweepCellLineJSON = sweep.CellLine

// SweepCellLine converts a streamed cell outcome to the NDJSON line
// form the CLI emits (the HTTP layer adds a `cached` field on top).
func SweepCellLine(o SweepCellOutcome) SweepCellLineJSON { return sweep.LineOf(o) }

// WriteSweepAggregateLine writes the aggregate's NDJSON framing — the
// final line of both `ichannels sweep run -ndjson` and POST /v1/sweeps,
// byte-identical between the two for a fixed spec and seed. Refined
// runs use SweepResult.WriteAggregateLine instead, which carries the
// refinement record in the same line.
func WriteSweepAggregateLine(w io.Writer, t *SweepTable) error {
	return sweep.WriteAggregateLine(w, t)
}

// ---- Distributed execution ----

// CellRunner is the one compute seam of the streaming engine: set one
// on ScenarioBatchOptions/ScenarioStreamOptions/SweepOptions (the
// Runner field; nil computes in-process) to delegate each cell's
// compute — the distributed tier's WorkerPool is the remote
// implementation. RunCell gets a normalized, validated spec and its
// hash (Scenario.Identify's), trusts both, and returns a CellResult:
// the result, filed under that hash; Cached, whether the runner served
// it without computing it; and Elapsed, the cell's cost (elapsed_us). For a
// fixed (spec, seed) the result's JSON encoding must be byte-identical
// to a local run's (the determinism contract).
type CellRunner = engine.CellRunner

// CellResult is what a CellRunner reports for one cell: the result,
// Cached, and Elapsed — the cell's compute or read cost, never time
// spent waiting.
type CellResult = engine.CellResult

// WorkerPool is the distributed sweep coordinator: a CellRunner that
// dispatches cells to remote workers over the HTTP v1 wire, verifies
// every response against the store's checksummed envelope format (a
// byzantine or stale worker is rejected and its cell redispatched),
// quarantines failing workers with exponential backoff, and falls back
// to local compute so output bytes never depend on which machines were
// alive. See internal/dist and docs/ARCHITECTURE.md.
type WorkerPool = dist.Pool

// WorkerPoolOptions configures a WorkerPool (HTTP client, retry
// attempts, backoff, local executor).
type WorkerPoolOptions = dist.Options

// NewWorkerPool builds a coordinator over worker base URLs — what
// `ichannels sweep run -workers URL,URL` constructs.
func NewWorkerPool(workers []string, opts WorkerPoolOptions) (*WorkerPool, error) {
	return dist.New(workers, opts)
}

// CellDispatch is the coordinator→worker wire frame for one cell
// (version, content hash, effective seed, normalized spec).
type CellDispatch = dist.CellDispatch

// NewCellDispatch frames one cell for the wire; ParseCellDispatch is
// the strict decoder the worker endpoint uses (unknown fields and
// trailing data rejected).
var (
	NewCellDispatch   = dist.NewCellDispatch
	ParseCellDispatch = dist.ParseCellDispatch
)

// ---- HTTP server ----

// ServerOptions configures NewAPIServer: the full serve surface (store
// tier, worker endpoint, store sharing, retention, cache and
// concurrency bounds) in one struct. The zero value is a memory-only
// API server.
type ServerOptions = serve.Options

// APIServer is the scenario-API server: Handler exposes the versioned
// v1 routes — GET /v1/experiments, GET /v1/scenarios/schema, POST
// /v1/scenarios with a (scenario, seed) result cache, POST /v1/sweeps,
// GET /v1/sweeps/schema, GET /v1/stats, plus POST /v1/cells with
// Worker and /v1/store with ShareStore. A registered experiment runs as
// an experiment-role scenario ({"role":"experiment","experiment":ID}).
// Close stops the retention timer; RunRetention forces one GC pass.
type APIServer = serve.Server

// NewAPIServer builds the server — what `ichannels serve` runs, so
// shutdown stops the retention loop (-gc-every) cleanly.
func NewAPIServer(opts ServerOptions) *APIServer { return serve.New(opts) }

// ---- Adaptive sweep refinement ----

// SweepPassStats is one executed refinement pass's deterministic
// header (pass number, cell count, budget truncation); streamed to
// SweepOptions.OnPass and recorded in SweepRefinementStats.
type SweepPassStats = sweep.PassStats

// SweepRefinementStats records a refined run's shape: the watched
// metric, each pass, and cells computed vs the dense-grid equivalent.
type SweepRefinementStats = sweep.RefinementStats

// RefineSweep runs a sweep adaptively, requiring the spec to carry a
// refine block (RunSweep also honors the block; this entry point makes
// the intent explicit and fails loudly on a dense spec). The refined
// cell set, per-cell results, and the final aggregate are byte-identical
// at any parallelism and across kill-and-resume, because per-pass
// dispatch follows scenario content-hash order and per-cell seeds
// derive from (BaseSeed, cell hash) exactly as in a dense run.
func RefineSweep(ctx context.Context, sw Sweep, opts SweepOptions) (*SweepResult, error) {
	if sw.Normalized().Refine == nil {
		return nil, fmt.Errorf("ichannels: RefineSweep needs a spec with a refine block (use RunSweep for dense grids)")
	}
	return sweep.Run(ctx, sw, opts)
}

// WriteSweepPassLine writes one refinement pass marker's NDJSON framing
// — emitted before the pass's cell lines by both the CLI's -ndjson mode
// and POST /v1/sweeps.
func WriteSweepPassLine(w io.Writer, p SweepPassStats) error {
	return sweep.WritePassLine(w, p)
}
