// Package gpuchar reproduces "Workload Characterization of 3D Games"
// (Roca, Moya, González, Solís, Fernández, Espasa — IISWC 2006): a
// functional GPU pipeline simulator in the mould of ATTILA, an abstract
// graphics API with trace record/replay, synthetic re-creations of the
// paper's twelve game timedemos, and a characterization engine that
// regenerates every table and figure of the paper's evaluation.
//
// This package is the public facade over the internal packages. Typical
// use:
//
//	prof := gpuchar.ProfileByName("Doom3/trdemo2")
//	res, err := gpuchar.Characterize(prof, 2)      // simulate 2 frames
//	clip, cull, trav := res.ClipCullPct()           // Table VII
//
// or run a whole experiment:
//
//	ctx := gpuchar.NewContext()
//	result, err := gpuchar.RunExperiment("table16", ctx)
//	result.Tables[0].Render(os.Stdout)
package gpuchar

import (
	"gpuchar/internal/core"
	"gpuchar/internal/explorer"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gpu"
	"gpuchar/internal/hwconfig"
	"gpuchar/internal/metrics"
	"gpuchar/internal/obsv"
	"gpuchar/internal/sweep"
	"gpuchar/internal/trace"
	"gpuchar/internal/workloads"
)

// Re-exported core types. The aliases expose the full method sets of the
// internal implementations.
type (
	// Profile describes one of the paper's Table I game timedemos.
	Profile = workloads.Profile
	// Workload drives a profile's synthetic timedemo through a device.
	Workload = workloads.Workload
	// Device is the abstract graphics API front-end (the OGL/D3D
	// boundary the paper instruments).
	Device = gfxapi.Device
	// Backend consumes draw calls: the GPU simulator or NullBackend.
	Backend = gfxapi.Backend
	// NullBackend discards GPU work, keeping API statistics only.
	NullBackend = gfxapi.NullBackend
	// GPU is the ATTILA-like pipeline simulator.
	GPU = gpu.GPU
	// GPUConfig is the simulator configuration (Table II).
	GPUConfig = gpu.Config
	// FrameStats is one simulated frame's microarchitectural counters.
	FrameStats = gpu.FrameStats
	// APIResult is a demo's API-level characterization.
	APIResult = core.APIResult
	// MicroResult is a demo's microarchitectural characterization.
	MicroResult = core.MicroResult
	// Context carries experiment parameters and caches runs.
	Context = core.Context
	// Experiment regenerates one paper table or figure.
	Experiment = core.Experiment
	// ExperimentResult holds regenerated tables and figures.
	ExperimentResult = core.Result
	// ExperimentError is one failure inside an experiment sweep.
	ExperimentError = core.ExperimentError
	// ExperimentErrors aggregates the failures of a keep-going sweep.
	ExperimentErrors = core.ExperimentErrors
	// TraceRecorder captures a device's API call stream.
	TraceRecorder = trace.Recorder
	// TracePlayer replays a captured stream into a device.
	TracePlayer = trace.Player
	// Tracer is the low-overhead execution tracer; bind one to
	// GPUConfig.Trace or Context.Trace and export Chrome/Perfetto JSON
	// with WriteChromeJSON. A nil *Tracer is the disabled tracer.
	Tracer = obsv.Tracer
	// TracerOptions configures a Tracer (ring capacity, span sampling).
	TracerOptions = obsv.Options
	// ProgressTracker aggregates run progress for the -progress ticker
	// and the observability server's /progress endpoint.
	ProgressTracker = obsv.ProgressTracker
	// Progress is a point-in-time run progress report.
	Progress = obsv.Progress
	// ObservabilityServer serves /metrics, /progress, /healthz and
	// /debug/pprof for a running characterization.
	ObservabilityServer = obsv.Server
	// ServerSources are the data feeds an ObservabilityServer renders.
	ServerSources = obsv.ServerSources
	// HWVariant is one named, sweepable hardware configuration: every
	// gpu.Config parameter plus a canonical content digest. Bind one to
	// Context.HW to characterize under it.
	HWVariant = hwconfig.Variant
	// SweepSpec describes a (config x demo x experiment) sweep grid.
	SweepSpec = sweep.Spec
	// SweepResult is a completed sweep: rows plus pivot-table and
	// CSV/JSON renderers.
	SweepResult = sweep.Result
	// SweepRunner computes one sweep cell (local or via a daemon).
	SweepRunner = sweep.Runner
	// SweepOptions tunes the sweep orchestrator.
	SweepOptions = sweep.Options
	// LocalSweepRunner computes sweep cells in-process.
	LocalSweepRunner = sweep.LocalRunner
	// QueueSweepRunner computes sweep cells through a gpuchard daemon.
	QueueSweepRunner = sweep.QueueRunner
	// MetricsSnapshot is one immutable set of named counters — the unit
	// the explorer records, diffs and streams.
	MetricsSnapshot = metrics.Snapshot
	// ExplorerRegistry records completed runs and serves the embedded
	// explorer UI, /api/runs, /api/compare and the /api/events SSE
	// stream; Mount it on an ObservabilityServer's mux.
	ExplorerRegistry = explorer.Registry
	// ExplorerRun is one recorded run: identity, configuration, and the
	// snapshots backing /api/compare.
	ExplorerRun = explorer.Run
	// ExplorerEvent is one SSE event (progress tick, frame counter
	// delta, or run-recorded notice).
	ExplorerEvent = explorer.Event
	// CompareDoc is the gpuchar/compare/v1 two-run diff document.
	CompareDoc = explorer.CompareDoc
)

// Graphics API dialects (Table I).
const (
	OpenGL   = gfxapi.OpenGL
	Direct3D = gfxapi.Direct3D
)

// Profiles returns the twelve Table I workload profiles.
func Profiles() []Profile { return workloads.Registry() }

// AllProfiles returns every workload profile: the twelve Table I
// timedemos plus the modern render-to-texture families.
func AllProfiles() []Profile { return workloads.All() }

// ProfileByName returns the profile with the given Table I name, or nil.
func ProfileByName(name string) *Profile { return workloads.ByName(name) }

// SimulatedProfiles returns the three demos the paper measures
// microarchitecturally.
func SimulatedProfiles() []Profile { return workloads.Simulated() }

// R520Config returns the paper's Table II simulator configuration at the
// given framebuffer size.
func R520Config(w, h int) GPUConfig { return gpu.R520Config(w, h) }

// NewGPU creates a pipeline simulator.
func NewGPU(cfg GPUConfig) *GPU { return gpu.New(cfg) }

// NewDevice creates a graphics device over a backend.
func NewDevice(api gfxapi.API, b Backend) *Device { return gfxapi.NewDevice(api, b) }

// NewWorkload prepares a profile's generator on a device at w x h.
func NewWorkload(p *Profile, d *Device, w, h int) *Workload {
	return workloads.New(p, d, w, h)
}

// ProfileAPI runs frames of a demo at the API level (null backend) and
// returns its Table III/IV/V/XII statistics.
func ProfileAPI(p *Profile, frames int) (*APIResult, error) {
	return core.RenderAPI(p, frames, nil, nil)
}

// Characterize simulates frames of a demo through the R520-like GPU at
// 1024x768 and returns its microarchitectural characterization
// (Tables VII-XVII).
func Characterize(p *Profile, frames int) (*MicroResult, error) {
	return core.RenderMicro(p, frames, gpu.R520Config(1024, 768), core.MicroHooks{})
}

// CharacterizeConfig is Characterize with an explicit GPU configuration,
// for ablation studies.
func CharacterizeConfig(p *Profile, frames int, cfg GPUConfig) (*MicroResult, error) {
	return core.RenderMicro(p, frames, cfg, core.MicroHooks{})
}

// MicroResultFromGPU wraps an already-run GPU's frames as a MicroResult.
func MicroResultFromGPU(p *Profile, g *GPU, cfg GPUConfig) *MicroResult {
	return core.MicroResultFromGPU(p, g, cfg)
}

// NewContext returns an experiment context with paper-resolution
// defaults.
func NewContext() *Context { return core.NewContext() }

// NewTracer creates an execution tracer (see Tracer).
func NewTracer(o TracerOptions) *Tracer { return obsv.New(o) }

// NewProgressTracker starts tracking a run of totalExperiments
// experiments (0 for runs that are not experiment-shaped).
func NewProgressTracker(totalExperiments int) *ProgressTracker {
	return obsv.NewProgressTracker(totalExperiments)
}

// StartObservabilityServer serves the observability endpoints on addr
// until Close.
func StartObservabilityServer(addr string, src ServerSources) (*ObservabilityServer, error) {
	return obsv.StartServer(addr, src)
}

// HWConfigs returns the named hardware variant registry: the r520
// default plus the cache-scaled, ablation, resolution and tile-worker
// families.
func HWConfigs() []HWVariant { return hwconfig.All() }

// HWConfigByName resolves one registry variant.
func HWConfigByName(name string) (HWVariant, bool) { return hwconfig.ByName(name) }

// HWConfigNames lists the registry variant names in listing order.
func HWConfigNames() []string { return hwconfig.Names() }

// DefaultHWConfig returns the paper's r520 hardware point.
func DefaultHWConfig() HWVariant { return hwconfig.Default() }

// NewExplorerRegistry creates a run registry retaining at most maxRuns
// completed runs (<= 0 uses the default retention).
func NewExplorerRegistry(maxRuns int) *ExplorerRegistry {
	return explorer.NewRegistry(maxRuns)
}

// CompareRuns builds the gpuchar/compare/v1 diff document between two
// recorded runs; its Tables render the per-metric diff tables.
func CompareRuns(a, b *ExplorerRun) *CompareDoc { return explorer.Compare(a, b) }

// RunSweep expands a sweep spec and computes every cell through the
// runner, returning the comparative grid.
func RunSweep(spec SweepSpec, r SweepRunner, opts SweepOptions) (*SweepResult, error) {
	return sweep.Run(spec, r, opts)
}

// Experiments lists every regenerable paper table and figure.
func Experiments() []Experiment { return core.Experiments() }

// RunExperiment regenerates one table or figure by id ("table7",
// "fig5", ...).
func RunExperiment(id string, ctx *Context) (*ExperimentResult, error) {
	e := core.ByID(id)
	if e == nil {
		return nil, errUnknownExperiment(id)
	}
	return e.Run(ctx)
}

// RunExperiments regenerates several experiments, rendering the demos
// they need concurrently on ctx.Workers goroutines. Results come back
// in the requested order and are identical to a serial run at any
// worker count. With ctx.KeepGoing set, failed experiments yield nil
// result slots and the error is an ExperimentErrors aggregate returned
// alongside the surviving results.
func RunExperiments(ids []string, ctx *Context) ([]*ExperimentResult, error) {
	return core.RunExperiments(ctx, ids)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "gpuchar: unknown experiment " + string(e)
}
