package core

import (
	"fmt"
	"sync"

	"gpuchar/internal/gpu"
	"gpuchar/internal/hwconfig"
	"gpuchar/internal/mem"
	"gpuchar/internal/metrics"
	"gpuchar/internal/obsv"
	"gpuchar/internal/report"
	"gpuchar/internal/workloads"
)

// Context carries the run parameters and caches workload runs so that a
// full table sweep renders each demo once. The demo caches are
// concurrency-safe: Prefetch renders independent demos on a bounded
// worker pool, after which experiments read the cached results in
// paper order, so output is identical at any worker count.
type Context struct {
	// APIFrames is the number of frames for API-level statistics
	// (cheap; the paper uses each demo's full Table I length).
	APIFrames int
	// SimFrames is the number of microarchitecturally simulated frames
	// (expensive; metrics are stationary after the first frame).
	SimFrames int
	// W, H is the rendering resolution (paper: 1024x768).
	W, H int
	// Workers bounds the experiment fan-out pool: how many demos render
	// concurrently in Prefetch/RunExperiments. <= 1 keeps the serial
	// lazy behaviour.
	Workers int
	// TileWorkers is passed to the GPU simulator's tile-parallel
	// fragment backend (gpu.Config.TileWorkers). The default 0 keeps
	// the serial pipeline, whose counters — including the sharded cache
	// and memory ones — are bit-identical to the seed implementation.
	TileWorkers int
	// HW selects the hardware variant every simulated run uses. nil (and
	// the r520 default variant) keep the seed configuration, so default
	// output stays byte-identical; a sweep builds one Context per
	// variant. A variant that pins resolution or tile fan-out overrides
	// W/H and TileWorkers.
	HW *hwconfig.Variant
	// KeepGoing makes the sweep fault-tolerant: a demo whose render
	// fails (error or recovered panic) is dropped from every table and
	// figure that wanted it, an experiment that fails is skipped, and
	// RunExperiments returns the partial results together with an
	// ExperimentErrors aggregate instead of aborting on the first
	// casualty. The surviving rows are byte-identical to a clean run.
	KeepGoing bool
	// Trace, when non-nil, receives the whole sweep's spans on one
	// timeline: per-experiment spans plus every demo render's frame,
	// stage and draw spans (see internal/obsv). The `characterize
	// -trace` flag binds one.
	Trace *obsv.Tracer
	// TraceDir, when set while Trace is nil, gives each experiment its
	// own tracer and writes TraceDir/<experiment-id>.json as it
	// finishes. Because demo renders are cached, a demo's spans land in
	// the experiment that rendered it first; prefetched renders
	// (Workers > 1) precede all experiments and are not recorded.
	TraceDir string
	// TraceSample is the 1-in-N sampling applied to fine-grained spans
	// by TraceDir's per-experiment tracers (a Trace tracer carries its
	// own sampling). <= 1 records everything.
	TraceSample int
	// Progress, when non-nil, receives experiment start/end and
	// per-frame completion events — the shared feed behind the
	// `-progress` ticker and the HTTP /progress endpoint.
	Progress *obsv.ProgressTracker
	// OnExperimentDone, when non-nil, receives each successfully
	// completed experiment together with the export snapshots of the
	// demos it demanded — the feed `characterize -listen` records into
	// the explorer run registry. Called synchronously from
	// RunExperiments, in experiment order; set it before the run starts.
	OnExperimentDone func(id string, snaps []metrics.Snapshot)

	mu         sync.Mutex
	apiCache   map[string]*APIResult
	microCache map[string]*MicroResult
	// expTracer is the per-experiment tracer while TraceDir drives the
	// sweep; liveGPUs tracks in-flight simulated renders for the
	// observability server's live /metrics feed.
	expTracer *obsv.Tracer
	liveGPUs  map[string]*gpu.GPU
	// apiErr/microErr negative-cache failed renders so a poisoned demo
	// fails once, not once per experiment that references it.
	apiErr   map[string]error
	microErr map[string]error
	// demoErrs records the demos dropped by keep-going experiments.
	demoErrs map[string]error
}

// NewContext returns a context with the paper's resolution and modest
// defaults: enough frames for stable averages at tractable runtimes.
func NewContext() *Context {
	return &Context{APIFrames: 120, SimFrames: 2, W: 1024, H: 768, Workers: 1}
}

// API returns (and caches) the API-level run of a demo. Failures are
// cached too, so a poisoned demo renders (and fails) once per sweep.
func (c *Context) API(name string) (*APIResult, error) {
	return memo(c, &c.apiCache, &c.apiErr, name, func(prof *workloads.Profile) (*APIResult, error) {
		return RenderAPI(prof, c.APIFrames, nil, func(frame int, _ func() *APICheckpoint) error {
			c.Progress.FrameDone(name, frame)
			return nil
		})
	})
}

// Micro returns (and caches) the simulated run of a demo. Failures are
// cached too, so a poisoned demo simulates (and fails) once per sweep.
func (c *Context) Micro(name string) (*MicroResult, error) {
	return memo(c, &c.microCache, &c.microErr, name, func(prof *workloads.Profile) (*MicroResult, error) {
		cfg := c.GPUConfig()
		cfg.Trace = c.tracer()
		cfg.TraceProcess = name
		return RenderMicro(prof, c.SimFrames, cfg, MicroHooks{
			OnGPU: func(g *gpu.GPU) func() {
				c.addLiveGPU(name, g)
				return func() { c.removeLiveGPU(name) }
			},
			OnFrame: func(frame int, _ metrics.Snapshot) error {
				c.Progress.FrameDone(name, frame)
				return nil
			},
		})
	})
}

// memo serves a demo's render, or its failure, from one of the
// context's caches, rendering it on a miss.
func memo[R any](c *Context, results *map[string]R, errs *map[string]error, name string,
	render func(*workloads.Profile) (R, error)) (R, error) {

	var zero R
	c.mu.Lock()
	if r, ok := (*results)[name]; ok {
		c.mu.Unlock()
		return r, nil
	}
	if err, ok := (*errs)[name]; ok {
		c.mu.Unlock()
		return zero, err
	}
	c.mu.Unlock()
	prof := workloads.ByName(name)
	if prof == nil {
		return zero, fmt.Errorf("core: unknown demo %q", name)
	}
	r, err := render(prof)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		store(errs, name, err)
		return zero, err
	}
	store(results, name, r)
	return r, nil
}

// store sets m[name] = v, allocating the map on first use. Callers hold
// the context mutex.
func store[V any](m *map[string]V, name string, v V) {
	if *m == nil {
		*m = map[string]V{}
	}
	(*m)[name] = v
}

// GPUConfig materializes the context's hardware point — the one place
// that decides how a variant pins resolution and tile fan-out. With no
// variant (or the default one) this is exactly the seed's
// gpu.R520Config + TileWorkers wiring; otherwise the variant decides,
// with the context's resolution and tile fan-out filling whatever the
// variant leaves as "inherit".
func (c *Context) GPUConfig() gpu.Config {
	if c.HW == nil {
		cfg := gpu.R520Config(c.W, c.H)
		cfg.TileWorkers = c.TileWorkers
		return cfg
	}
	cfg := c.HW.GPUConfig(c.W, c.H)
	if cfg.TileWorkers == 0 {
		cfg.TileWorkers = c.TileWorkers
	}
	return cfg
}

// skipDemo decides what a failed demo render means for the experiment
// calling it: abort (strict, the default) or drop the demo's rows and
// record the casualty once (KeepGoing). Experiment run functions call
// it on every per-demo error.
func (c *Context) skipDemo(demo string, err error) bool {
	if !c.KeepGoing {
		return false
	}
	c.mu.Lock()
	if _, ok := c.demoErrs[demo]; !ok {
		store(&c.demoErrs, demo, err)
	}
	c.mu.Unlock()
	return true
}

// demoFailures returns the demos dropped so far, in Table I order so
// reports are deterministic.
func (c *Context) demoFailures() ExperimentErrors {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.demoErrs) == 0 {
		return nil
	}
	var out ExperimentErrors
	for _, p := range workloads.All() {
		if err, ok := c.demoErrs[p.Name]; ok {
			out = append(out, &ExperimentError{Demo: p.Name, Err: err})
		}
	}
	return out
}

// Result is one experiment's regenerated output.
type Result struct {
	Tables  []*report.Table
	Figures []*report.Figure
}

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	ID    string // "table3", "fig5", ...
	Title string
	// Micro marks experiments that need the GPU simulator.
	Micro bool
	// MicroDemos lists the simulated demos a Micro experiment consumes;
	// empty means the classic SimDemos set, so the Table I experiments
	// need no per-experiment wiring.
	MicroDemos []string
	// API marks experiments that replay demos at the API level.
	API bool
	// APIDemos lists the demos the experiment reads through
	// Context.API. Prefetch and NeededDemos render exactly this set, so
	// the context cache — and with it the exported JSON document — is
	// identical whether the demos were fanned out or rendered lazily.
	APIDemos []string
	Run      func(*Context) (*Result, error)
}

// apiDemoNames is every Table I demo in registry order: the demand of
// the full-table experiments.
func apiDemoNames() []string {
	var names []string
	for _, p := range workloads.Registry() {
		names = append(names, p.Name)
	}
	return names
}

// fig8Demos are the two timedemos the paper plots shader instruction
// counts for in Figure 8.
var fig8Demos = []string{"Quake4/demo4", "FEAR/interval2"}

// ModernDemos lists the synthetic multi-pass demos (workloads.Modern())
// the render-to-texture experiment simulates, in registry order.
var ModernDemos = []string{
	"Deferred/gbuffer", "ShadowMap/cascades", "ParticleStorm/overdraw",
}

// Experiments returns the full registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Game workload description", Run: runTable1},
		{ID: "table2", Title: "ATTILA/R520 configuration", Run: runTable2},
		{ID: "fig1", Title: "Batches per frame", API: true, APIDemos: PlottedDemos, Run: runFig1},
		{ID: "table3", Title: "Indices per batch and frame, index BW", API: true, APIDemos: apiDemoNames(), Run: runTable3},
		{ID: "fig2", Title: "Index BW per frame", API: true, APIDemos: PlottedDemos, Run: runFig2},
		{ID: "fig3", Title: "Average state calls between batches", API: true, APIDemos: PlottedDemos, Run: runFig3},
		{ID: "table4", Title: "Average vertex shader instructions", API: true, APIDemos: apiDemoNames(), Run: runTable4},
		{ID: "table5", Title: "Primitive utilization", API: true, APIDemos: apiDemoNames(), Run: runTable5},
		{ID: "fig5", Title: "Post-transform vertex cache hit rate", Micro: true, Run: runFig5},
		{ID: "table6", Title: "System bus bandwidths", Run: runTable6},
		{ID: "fig6", Title: "Indices, assembled and traversed triangles", Micro: true, Run: runFig6},
		{ID: "table7", Title: "Clipped, culled and traversed triangles", Micro: true, Run: runTable7},
		{ID: "fig7", Title: "Average triangle size per frame and stage", Micro: true, Run: runFig7},
		{ID: "table8", Title: "Average triangle size (fragments)", Micro: true, Run: runTable8},
		{ID: "table9", Title: "Quads removed or processed per stage", Micro: true, Run: runTable9},
		{ID: "table10", Title: "Quad efficiency", Micro: true, Run: runTable10},
		{ID: "table11", Title: "Average overdraw per pixel and stage", Micro: true, Run: runTable11},
		{ID: "table12", Title: "Fragment program instructions and ALU/TEX ratio", API: true, APIDemos: apiDemoNames(), Run: runTable12},
		{ID: "fig8", Title: "Fragment program instructions per frame", API: true, APIDemos: fig8Demos, Run: runFig8},
		{ID: "table13", Title: "Bilinear samples and ALU-to-bilinear ratio", Micro: true, Run: runTable13},
		{ID: "table14", Title: "Cache configuration and hit rates", Micro: true, Run: runTable14},
		{ID: "table15", Title: "Average memory usage profile", Micro: true, Run: runTable15},
		{ID: "table16", Title: "Memory traffic distribution per GPU stage", Micro: true, Run: runTable16},
		{ID: "table17", Title: "Bytes per vertex and fragment", Micro: true, Run: runTable17},
		{ID: "multipass", Title: "Render-to-texture multi-pass characterization",
			Micro: true, MicroDemos: ModernDemos, Run: runMultipass},
	}
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	for _, e := range Experiments() {
		if e.ID == id {
			exp := e
			return &exp
		}
	}
	return nil
}

func runTable1(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table1", Title: "Game workload description (Table I)",
		Headers: []string{"Game/Timedemo", "#Frames", "Duration@30fps",
			"Texture quality", "Aniso", "Shaders", "API", "Engine", "Release"},
	}
	for _, p := range workloads.Registry() {
		min, sec := p.DurationAt30FPS()
		aniso := "-"
		if p.AnisoLevel > 0 {
			aniso = fmt.Sprintf("%dX", p.AnisoLevel)
		}
		sh := "NO"
		if p.UsesShaders {
			sh = "YES"
		}
		t.AddRow(p.Name, fmt.Sprint(p.Frames), fmt.Sprintf("%d'%02d''", min, sec),
			p.TextureQuality, aniso, sh, p.API.String(), p.Engine, p.Release)
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runTable2(c *Context) (*Result, error) {
	cfg := c.GPUConfig()
	t := &report.Table{
		ID: "table2", Title: "ATTILA configuration vs R520 (Table II)",
		Headers: []string{"Parameter", "R520", "Simulator"},
	}
	if c.HW != nil && !c.HW.IsDefault() {
		name := c.HW.Name
		if name == "" {
			name = "inline"
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("hardware variant: %s (digest %.12s)", name, c.HW.Digest()))
	}
	t.AddRow("Vertex/Fragment shaders", "8/16", fmt.Sprintf("%d (unified)", cfg.UnifiedShaders))
	t.AddRow("Triangle setup", "2 triangles/cycle", fmt.Sprintf("%d triangles/cycle", cfg.TrianglesPerCycle))
	t.AddRow("Texture rate", "16 bilinears/cycle", fmt.Sprintf("%d bilinears/cycle", cfg.BilinearsPerCycle))
	t.AddRow("ZStencil/Color rates", "16/16 fragments/cycle",
		fmt.Sprintf("%d/%d fragments/cycle", cfg.ZStencilRate, cfg.ColorRate))
	t.AddRow("Memory BW", "> 64 bytes/cycle", fmt.Sprintf("%d bytes/cycle", cfg.MemBytesPerCycle))
	return &Result{Tables: []*report.Table{t}}, nil
}

func runFig1(c *Context) (*Result, error) {
	fig := &report.Figure{ID: "fig1", Title: "Batches per frame", YLabel: "# batches"}
	for _, name := range PlottedDemos {
		r, err := c.API(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		fig.Series = append(fig.Series, r.BatchesSeries())
	}
	return &Result{Figures: []*report.Figure{fig}}, nil
}

func runTable3(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table3", Title: "Average indices per batch and frame, index BW (Table III)",
		Headers: []string{"Game/Timedemo", "idx/batch", "paper", "idx/frame",
			"paper", "B/idx", "BW@100fps MB/s", "paper"},
	}
	for _, p := range workloads.Registry() {
		r, err := c.API(p.Name)
		if err != nil {
			if c.skipDemo(p.Name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperAPI[p.Name]
		t.AddRow(p.Name,
			report.F(r.AvgIndicesPerBatch()), report.F(ref.IdxPerBatch),
			report.F(r.AvgIndicesPerFrame()), report.F(ref.IdxPerFrame),
			fmt.Sprint(p.BytesPerIndex),
			report.F(r.IndexBWAt100FPS()), report.F(ref.IndexBWMBs))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runFig2(c *Context) (*Result, error) {
	fig := &report.Figure{ID: "fig2", Title: "Index BW per frame", YLabel: "MB"}
	for _, name := range PlottedDemos {
		r, err := c.API(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		fig.Series = append(fig.Series, r.IndexMBSeries())
	}
	return &Result{Figures: []*report.Figure{fig}}, nil
}

func runFig3(c *Context) (*Result, error) {
	fig := &report.Figure{ID: "fig3", Title: "Average state calls between batches",
		YLabel: "# state calls (log scale in the paper)"}
	for _, name := range PlottedDemos {
		r, err := c.API(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		fig.Series = append(fig.Series, r.StateCallsSeries())
	}
	return &Result{Figures: []*report.Figure{fig}}, nil
}

func runTable4(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table4", Title: "Average vertex shader instructions (Table IV)",
		Headers: []string{"Game/Timedemo", "VS instr", "paper"},
	}
	for _, p := range workloads.Registry() {
		r, err := c.API(p.Name)
		if err != nil {
			if c.skipDemo(p.Name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperAPI[p.Name]
		if p.VSInstr2 > 0 {
			half := len(r.Frames) / 2
			t.AddRow(p.Name,
				fmt.Sprintf("Reg1: %s / Reg2: %s",
					report.F(r.AvgVSInstr(0, half)), report.F(r.AvgVSInstr(half, 0))),
				fmt.Sprintf("Reg1: %s / Reg2: %s",
					report.F(ref.VSInstr), report.F(ref.VSInstr2)))
			continue
		}
		t.AddRow(p.Name, report.F(r.AvgVSInstr(0, 0)), report.F(ref.VSInstr))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runTable5(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table5", Title: "Primitive utilization (Table V)",
		Headers: []string{"Game/Timedemo", "TL", "TS", "TF",
			"prims/frame", "paper TL/TS/TF", "paper prims"},
	}
	for _, p := range workloads.Registry() {
		r, err := c.API(p.Name)
		if err != nil {
			if c.skipDemo(p.Name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperAPI[p.Name]
		mix := r.PrimMixPct()
		t.AddRow(p.Name, report.Pct(mix[0]), report.Pct(mix[1]), report.Pct(mix[2]),
			report.F(r.AvgPrimitives()),
			fmt.Sprintf("%.1f/%.1f/%.1f", ref.TLPct, ref.TSPct, ref.TFPct),
			report.F(ref.PrimsPerFrame))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runFig5(c *Context) (*Result, error) {
	fig := &report.Figure{ID: "fig5", Title: "Post-transform vertex cache hit rate",
		YLabel: "hit rate (theoretical adjacent-triangle bound 0.667)"}
	t := &report.Table{
		ID: "fig5", Title: "Vertex cache hit rate (Figure 5 summary)",
		Headers: []string{"Game/Timedemo", "hit rate", "paper band"},
	}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		fig.Series = append(fig.Series, r.VCacheSeries())
		t.AddRow(name,
			report.FOpt(r.VertexCacheHitRate(), r.Agg.VCache.Accesses() > 0),
			"~0.6-0.8, bound 0.667")
	}
	return &Result{Tables: []*report.Table{t}, Figures: []*report.Figure{fig}}, nil
}

func runTable6(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table6", Title: "Current system bus BWs (Table VI)",
		Headers: []string{"Bus", "Width", "Bus speed", "Bus BW"},
	}
	for _, b := range mem.SystemBuses() {
		t.AddRow(b.Name, fmt.Sprintf("%d bits", b.WidthBits), b.ClockDesc,
			fmt.Sprintf("%.3f GB/s", float64(b.BandwidthBytes)/float64(mem.GB)))
	}
	t.Notes = append(t.Notes,
		"PCI Express uses serial links with a 10 bits/byte encoding")
	return &Result{Tables: []*report.Table{t}}, nil
}

func runFig6(c *Context) (*Result, error) {
	fig := &report.Figure{ID: "fig6",
		Title: "Indices, triangles assembled and traversed", YLabel: "count"}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		idx, asm, trav := r.TriangleFlowSeries()
		fig.Series = append(fig.Series, idx, asm, trav)
	}
	return &Result{Figures: []*report.Figure{fig}}, nil
}

func runTable7(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table7", Title: "Percentage of clipped, culled and traversed triangles (Table VII)",
		Headers: []string{"Game/Timedemo", "% clipped", "% culled", "% traversed", "paper c/c/t"},
	}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperMicro[name]
		clip, cull, trav := r.ClipCullPct()
		t.AddRow(name, report.Pct(clip), report.Pct(cull), report.Pct(trav),
			fmt.Sprintf("%.0f/%.0f/%.0f", ref.ClipPct, ref.CullPct, ref.TravPct))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runFig7(c *Context) (*Result, error) {
	fig := &report.Figure{ID: "fig7",
		Title:  "Average triangle size per frame at different stages",
		YLabel: "fragments per triangle"}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		raster, zs, shade := r.TriangleSizeSeries()
		fig.Series = append(fig.Series, raster, zs, shade)
	}
	return &Result{Figures: []*report.Figure{fig}}, nil
}

func runTable8(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table8", Title: "Average triangle size in fragments (Table VIII)",
		Headers: []string{"Game/Timedemo", "Raster", "Z&Stencil", "Shading",
			"Blending", "paper r/z/s/b"},
		Notes: []string{
			"The paper's Tables III, VII, VIII and XI are mutually inconsistent " +
				"under a single definition (overdraw x pixels != triangle size x " +
				"traversed); this reproduction pins Tables III, VII and XI, so " +
				"absolute triangle sizes land at the internally consistent values.",
		},
	}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperMicro[name]
		a, b, cc, d := r.TriangleSize()
		t.AddRow(name, report.F(a), report.F(b), report.F(cc), report.F(d),
			fmt.Sprintf("%.0f/%.0f/%.0f/%.0f", ref.TriRaster, ref.TriZSt,
				ref.TriShade, ref.TriBlend))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runTable9(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table9", Title: "Percentage of removed or processed quads per stage (Table IX)",
		Headers: []string{"Game/Timedemo", "HZ", "Z&Stencil", "Alpha",
			"Color Mask", "Blending", "paper"},
	}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperMicro[name]
		hz, zs, alpha, mask, blend := r.QuadKillPct()
		t.AddRow(name, report.Pct(hz), report.Pct(zs), report.Pct(alpha),
			report.Pct(mask), report.Pct(blend),
			fmt.Sprintf("%.1f/%.1f/%.1f/%.1f/%.1f", ref.QHZPct, ref.QZStPct,
				ref.QAlphaPct, ref.QMaskPct, ref.QBlendPct))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runTable10(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table10", Title: "Quad efficiency: % complete quads (Table X)",
		Headers: []string{"Game/Timedemo", "Raster", "Z&Stencil", "paper r/z"},
	}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperMicro[name]
		raster, zs := r.QuadEfficiency()
		t.AddRow(name, report.Pct(raster), report.Pct(zs),
			fmt.Sprintf("%.1f/%.1f", ref.QuadEffRaster, ref.QuadEffZSt))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runTable11(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table11", Title: "Average overdraw per pixel and stage (Table XI)",
		Headers: []string{"Game/Timedemo", "Raster", "Z&Stencil", "Shading",
			"Blending", "paper r/z/s/b"},
	}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperMicro[name]
		a, b, cc, d := r.Overdraw()
		t.AddRow(name, report.F(a), report.F(b), report.F(cc), report.F(d),
			fmt.Sprintf("%.2f/%.2f/%.2f/%.2f", ref.ODRaster, ref.ODZSt,
				ref.ODShade, ref.ODBlend))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runTable12(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table12", Title: "Fragment program instructions and ALU-to-texture ratio (Table XII)",
		Headers: []string{"Game/Timedemo", "Instr", "Tex instr", "ALU/Tex",
			"paper i/t/r"},
	}
	for _, p := range workloads.Registry() {
		r, err := c.API(p.Name)
		if err != nil {
			if c.skipDemo(p.Name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperAPI[p.Name]
		t.AddRow(p.Name, report.F(r.AvgFSInstr()), report.F(r.AvgFSTex()),
			report.F(r.ALUTexRatio()),
			fmt.Sprintf("%.2f/%.2f/%.2f", ref.FSInstr, ref.FSTex, ref.Ratio))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runFig8(c *Context) (*Result, error) {
	fig := &report.Figure{ID: "fig8",
		Title:  "Average fragment program instructions per frame",
		YLabel: "instructions"}
	for _, name := range fig8Demos {
		r, err := c.API(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		fig.Series = append(fig.Series, r.FSInstrSeries(), r.FSTexSeries())
	}
	return &Result{Figures: []*report.Figure{fig}}, nil
}

func runTable13(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table13", Title: "Bilinear samples per request and ALU/bilinear ratio (Table XIII)",
		Headers: []string{"Game/Timedemo", "Bilinear/request", "paper",
			"ALU instr/bilinear", "paper"},
	}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperMicro[name]
		t.AddRow(name,
			report.FOpt(r.BilinearPerRequest(), r.Agg.Tex.Requests > 0),
			report.F(ref.Bilinear),
			report.FOpt(r.ALUPerBilinear(), r.Agg.Tex.BilinearSamples > 0),
			report.F(ref.ALUPerBilinear))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runTable14(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table14", Title: "Cache configuration and hit rates (Table XIV)",
		Headers: []string{"Game/Timedemo", "Z&Stencil (16KB 64wx256B)",
			"Tex L0 (4KB 64wx64B)", "Tex L1 (16KB 16wx16sx64B)",
			"Color (16KB 64wx256B)", "paper z/L0/color"},
	}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperMicro[name]
		z, l0, l1, color := r.CacheHitRates()
		t.AddRow(name,
			report.PctOpt(z, r.Agg.ZCache.Accesses() > 0),
			report.PctOpt(l0, r.Agg.TexL0.Accesses() > 0),
			report.PctOpt(l1, r.Agg.TexL1.Accesses() > 0),
			report.PctOpt(color, r.Agg.ColorCache.Accesses() > 0),
			fmt.Sprintf("%.1f/%.1f/%.1f", ref.ZCacheHit, ref.TexL0Hit, ref.ColorCacheHit))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runTable15(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table15", Title: "Average memory usage profile (Table XV)",
		Headers: []string{"Game/Timedemo", "MB/frame", "%Read", "%Write",
			"BW@100fps GB/s", "paper mb/r/w/gbs"},
	}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperMicro[name]
		mb, rd, wr, gbs := r.MemoryProfile()
		t.AddRow(name, report.F(mb), report.Pct(rd), report.Pct(wr), report.F(gbs),
			fmt.Sprintf("%.0f/%.0f/%.0f/%.0f", ref.MBPerFrame, ref.ReadPct,
				ref.WritePct, ref.BWGBs))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runTable16(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table16", Title: "Memory traffic distribution per GPU stage (Table XVI)",
		Headers: []string{"Game/Timedemo", "Vertex", "Z&Stencil", "Texture",
			"Color", "DAC", "CP", "paper v/z/t/c/d/cp"},
	}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperMicro[name]
		s := r.TrafficSplit()
		t.AddRow(name, report.Pct(s[0]), report.Pct(s[1]), report.Pct(s[2]),
			report.Pct(s[3]), report.Pct(s[4]), report.Pct(s[5]),
			fmt.Sprintf("%.1f/%.1f/%.1f/%.1f/%.1f/%.1f", ref.Split[0], ref.Split[1],
				ref.Split[2], ref.Split[3], ref.Split[4], ref.Split[5]))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runTable17(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "table17", Title: "Bytes per vertex and fragment (Table XVII)",
		Headers: []string{"Game/Timedemo", "Vertex", "Z&Stencil", "Shaded",
			"Color", "paper v/z/s/c"},
	}
	for _, name := range SimDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		ref := PaperMicro[name]
		v, zs, sh, col := r.BytesPer()
		t.AddRow(name, report.F(v), report.F(zs), report.F(sh), report.F(col),
			fmt.Sprintf("%.2f/%.2f/%.2f/%.2f", ref.BVertex, ref.BZSt,
				ref.BShade, ref.BColor))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}

func runMultipass(c *Context) (*Result, error) {
	t := &report.Table{
		ID: "multipass", Title: "Render-to-texture multi-pass characterization",
		Headers: []string{"Demo", "Family", "Passes", "Targets",
			"Off-screen frags/frame", "Off-screen z-tests/frame", "Overdraw (blend)"},
		Notes: []string{
			"Off-screen columns sum the per-pass (pass=<target>) counter " +
				"snapshots; the backbuffer keeps its own counters, so the " +
				"Table I demos are untouched by this instrumentation.",
		},
	}
	for _, name := range ModernDemos {
		r, err := c.Micro(name)
		if err != nil {
			if c.skipDemo(name, err) {
				continue
			}
			return nil, err
		}
		var frags, ztests int64
		for _, s := range r.Pass {
			if v, ok := s.Get("rop/fragments"); ok {
				frags += v
			}
			if v, ok := s.Get("zst/fragments_in"); ok {
				ztests += v
			}
		}
		n := r.nframes()
		if n == 0 {
			n = 1
		}
		_, _, _, blend := r.Overdraw()
		t.AddRow(name, r.Prof.Family(),
			fmt.Sprint(r.Prof.PassCount()), fmt.Sprint(len(r.Pass)),
			report.F(float64(frags)/n), report.F(float64(ztests)/n),
			report.F(blend))
	}
	return &Result{Tables: []*report.Table{t}}, nil
}
