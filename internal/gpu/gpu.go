// Package gpu assembles the full rendering pipeline — geometry,
// rasterization, hierarchical Z, z & stencil, fragment shading with
// texturing, and the color stage — into a GPU simulator that implements
// the gfxapi.Backend interface, in the mould of the ATTILA simulator the
// paper drives its microarchitectural measurements with (§II.B).
//
// The simulator is functional plus exact traffic accounting: every
// statistic the paper reports (fragment counts, quad kill rates, cache
// hit rates, per-stage memory traffic) is a count, not a latency, so no
// cycle timing is modelled. The Table II rate parameters are kept in
// Config for bandwidth projections.
//
// # Parallel fragment backend
//
// With Config.TileWorkers > 1 the fragment backend runs sort-middle
// tile-parallel: geometry and triangle setup stay serial, rasterized
// quads are binned to screen-space buckets of 8 horizontally
// consecutive 8x8 blocks (64x8 pixels), and buckets are assigned to N
// workers per draw by greedy longest-bucket-first load balancing. The
// serial front end of draw N+1 (geometry, setup, binning) overlaps the
// workers of draw N; the next call drains them (see executeParallel).
// Each worker runs HZ -> z & stencil -> fragment shading -> blend for its
// quads in submission order against private shader machine, texture
// unit, cache and stat shards. Because every 8x8 framebuffer block (the
// granularity of the z/color cache lines, the HZ mirror and the
// compression metadata) is owned by exactly one worker within a draw
// and quads never straddle blocks, all order-dependent results —
// framebuffer bytes, kill counts, overdraw — are exactly those of the
// serial pipeline at any worker count. The contiguous bucket runs exist
// to kill false sharing: a 64-byte cache line of the shared float32
// pixel planes spans 16 horizontally adjacent pixels — two 8x8 blocks —
// so per-block round-robin ownership put every pixel line on two
// workers. Cache hit rates and memory traffic are per-shard and merged
// at frame end; they are deterministic for a fixed worker count but
// shift slightly with N (see DESIGN.md "Parallel architecture").
package gpu

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"gpuchar/internal/cache"
	"gpuchar/internal/fragment"
	"gpuchar/internal/geom"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gmath"
	"gpuchar/internal/mem"
	"gpuchar/internal/metrics"
	"gpuchar/internal/obsv"
	"gpuchar/internal/rast"
	"gpuchar/internal/rop"
	"gpuchar/internal/shader"
	"gpuchar/internal/texture"
	"gpuchar/internal/zst"
)

// Config is the simulated GPU configuration. R520Config reproduces the
// paper's Table II; internal/hwconfig materializes named sweep variants
// into Configs.
//
// Fields split into two classes. Behavioral parameters change what the
// simulator computes — framebuffer bytes, traffic counts, cache hit
// rates: Width/Height, VertexCacheSize, the four cache geometries,
// TileWorkers/TileBucketBlocks (cache-counter sharding only; the
// framebuffer stays exact) and the feature toggles. Informational
// parameters only label reports and scale bandwidth projections — the
// Table II rates: UnifiedShaders, TrianglesPerCycle, BilinearsPerCycle,
// ZStencilRate, ColorRate and MemBytesPerCycle. The hwconfig registry's
// exhaustiveness test pins this classification.
type Config struct {
	// Width, Height is the framebuffer size (behavioral).
	Width, Height int

	// Informational rate parameters (Table II): carried into reports
	// and bandwidth-at-fps projections, never into traffic counts.
	UnifiedShaders    int
	TrianglesPerCycle int
	BilinearsPerCycle int
	ZStencilRate      int
	ColorRate         int
	MemBytesPerCycle  int

	// VertexCacheSize is the post-transform FIFO depth (behavioral:
	// Figure 5 hit rates and vertex traffic). 0 takes the Table II
	// default.
	VertexCacheSize int

	// Cache geometries (behavioral: Table XIV hit rates, Tables XV-XVII
	// traffic). Zero values take the paper's Table XIV defaults. The z
	// and color caches keep their one-line-per-8x8-block addressing at
	// any line size.
	ZCache     cache.Config
	TexL0      cache.Config
	TexL1      cache.Config
	ColorCache cache.Config

	// TileWorkers is the number of tile-parallel fragment-backend
	// workers. 0 or 1 selects the serial pipeline; larger values shard
	// the framebuffer into disjoint 8x8-block sets processed
	// concurrently. The framebuffer and all order-dependent statistics
	// are bit-identical at any worker count; cache counters are sharded
	// (deterministic per count, slightly different across counts).
	TileWorkers int
	// TileBucketBlocks is the number of horizontally consecutive 8x8
	// blocks per parallel-assignment bucket (0 takes the default 8).
	// Pure scheduling granularity: the framebuffer is exact at any
	// value, and it only matters when TileWorkers > 1.
	TileBucketBlocks int

	// Feature toggles for ablation studies (behavioral: traffic and
	// kill counts; never framebuffer contents).
	HZ               bool
	ZCompression     bool
	ColorCompression bool
	FastClear        bool

	// Trace, when non-nil, receives per-frame, per-stage, per-draw and
	// per-tile-worker spans (see trace.go). Nil keeps tracing compiled
	// down to a branch per hook. Runtime wiring, not a hardware
	// parameter.
	Trace *obsv.Tracer
	// TraceProcess names the process grouping the GPU's tracks in the
	// trace viewer — typically the demo name. Empty means "gpu".
	TraceProcess string
}

// R520Config returns the ATTILA configuration of Table II at the given
// framebuffer size (the paper uses 1024x768), with the Table XIV cache
// geometries spelled out.
func R520Config(w, h int) Config {
	return Config{
		Width: w, Height: h,
		UnifiedShaders:    16,
		TrianglesPerCycle: 2,
		BilinearsPerCycle: 16,
		ZStencilRate:      16,
		ColorRate:         16,
		MemBytesPerCycle:  mem.DefaultBytesPerCycle,
		VertexCacheSize:   geom.DefaultVertexCacheSize,
		ZCache:            zst.ZCacheConfig,
		TexL0:             texture.L0Config,
		TexL1:             texture.L1Config,
		ColorCache:        rop.ColorCacheConfig,
		TileBucketBlocks:  groupBlocks,
		HZ:                true,
		ZCompression:      true,
		ColorCompression:  true,
		FastClear:         true,
	}
}

// FrameStats gathers every stage's per-frame counters — the raw data
// for all the microarchitectural tables of the paper.
type FrameStats struct {
	Geom geom.Stats
	Rast rast.Stats
	ZSt  zst.Stats
	Frag fragment.Stats
	Rop  rop.Stats
	Tex  texture.SampleStats

	VCache     cache.Stats
	ZCache     cache.Stats
	TexL0      cache.Stats
	TexL1      cache.Stats
	ColorCache cache.Stats

	VS shader.ExecStats
	FS shader.ExecStats

	Mem [mem.NumClients]mem.Traffic
}

// pipe groups the per-quad backend stages. The serial pipeline uses the
// GPU's own stages; each tile worker carries shard views of the z and
// color buffers plus a private shading stage.
type pipe struct {
	zbuf   *zst.Buffer
	frag   *fragment.Stage
	target *rop.Target
	// clk accumulates per-stage busy time while tracing; nil (the
	// default) keeps the quad path free of timing calls.
	clk *stageClock
}

// tileWorker is one fragment-backend worker: a pipe over buffer shards,
// a private fragment shader machine with its own texture unit, a
// private memory-controller shard, and the buckets assigned to it for
// the current draw.
type tileWorker struct {
	pipe
	fs  *shader.Machine
	tex *texture.Unit
	mem *mem.Controller
	// groups lists the bucket indices this worker drains this draw, and
	// quads their total quad count. Both are written by the assignment
	// pass on the main thread before the worker goroutines start.
	groups []int32
	quads  int
	// panicked holds the value of a panic the worker recovered during the
	// in-flight draw; the drain re-raises it on the caller's goroutine.
	panicked any
	// reg binds the worker's shard counters under the same names as the
	// serial registry, so shard snapshots Merge element-for-element.
	reg *metrics.Registry
}

// drawJob is the per-draw state a tile worker reads, captured by value
// at launch: the front end rewrites the GPU's copies for the next draw
// while the workers still run.
type drawJob struct {
	fs       *shader.Program
	zstate   zst.State
	ropState rop.State
	earlyZ   bool
	buckets  [][]quadWork
	// tr is the tracer when this draw is sampled (nil otherwise); the
	// worker's drain span lands on track tk.
	tr *obsv.Tracer
	tk obsv.Track
}

// run executes the worker's share of one draw: its buckets in screen
// order, each in submission order. A panic (a texture's ProcFunc, say)
// is recovered into w.panicked rather than killing the process.
func (w *tileWorker) run(job drawJob, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			w.panicked = rec
		}
	}()
	sp := job.tr.Begin(job.tk, "drain")
	var q rast.Quad
	for _, gi := range w.groups {
		b := job.buckets[gi]
		for i := range b {
			qw := &b[i]
			q = rast.Quad{X: int(qw.x), Y: int(qw.y), Mask: qw.mask, Z: qw.z, Tri: qw.tri}
			w.processQuad(&q, job.fs, &job.zstate, &job.ropState, job.earlyZ, qw.front)
		}
	}
	if job.tr != nil {
		sp.EndArgs(map[string]any{
			"quads": int64(w.quads), "buckets": int64(len(w.groups)),
		})
	}
}

// quadWork is one binned quad: the rasterizer's scratch quad with
// 32-bit coordinates, plus the facing of its triangle (which selects the
// stencil op set). It takes 40 bytes against 56 for a rast.Quad plus the
// flag, which matters because the two bin sets hold two draws' quads.
type quadWork struct {
	x, y  int32
	mask  uint8
	front bool
	z     [4]float32
	tri   *rast.SetupTri
}

// surface is one renderable color + depth pair: the backbuffer or an
// off-screen render target. Each carries its own bucket-grid width for
// the tile-parallel backend (targets differ in size) and, for render
// targets, its own counter registries so per-pass metrics can be
// labeled. The backbuffer's counters stay in the GPU's main registries,
// keeping forward-only snapshots byte-identical to the single-surface
// pipeline.
type surface struct {
	name   string
	w, h   int
	zbuf   *zst.Buffer
	target *rop.Target
	// Per-worker shard views, parallel to GPU.workers.
	wz []*zst.Buffer
	wt []*rop.Target
	// reg and wreg bind this surface's z & color counters under the
	// standard prefixes; nil for the backbuffer.
	reg  *metrics.Registry
	wreg []*metrics.Registry
	// groupsX is the number of buckets per row of 8x8 blocks (see
	// binner).
	groupsX int
}

// binSet is the binned work of one draw: its triangle setups (queued
// quads point into them), the bucket grid and the non-empty bucket
// indices. The GPU owns two and alternates between them, so the front
// end can bin one draw while the workers drain the previous one.
type binSet struct {
	setups  []rast.SetupTri
	buckets [][]quadWork
	touched []int32
}

// recycle empties the set's buckets, keeping their capacity.
func (b *binSet) recycle() {
	for _, gi := range b.touched {
		b.buckets[gi] = b.buckets[gi][:0]
	}
	b.touched = b.touched[:0]
}

// flight is the draw whose tile workers may still be running.
type flight struct {
	bins *binSet // nil when no draw is in flight
	wg   sync.WaitGroup
	// Tracing: the draw's start, triangle count and sequence number,
	// for its sampled draw span.
	sampled bool
	start   int64
	tris    int
	draw    uint64
}

// GPU is the pipeline simulator.
type GPU struct {
	Cfg Config
	Mem *mem.Controller

	vsMachine *shader.Machine
	fsMachine *shader.Machine
	geom      *geom.Pipeline
	rast      *rast.Rasterizer
	zbuf      *zst.Buffer
	texUnit   *texture.Unit
	frag      *fragment.Stage
	target    *rop.Target

	serial pipe    // serial backend over the stages above
	emit   emitCtx // reusable serial emitter (no per-draw closure)

	// Tile-parallel backend state (Cfg.TileWorkers > 1). Successive draws
	// alternate between the two bin sets, each sized for the largest
	// surface: a surface switch drains first, so the draw in flight and
	// the draw being binned always share one surface.
	workers  []*tileWorker
	bins     [2]binSet
	next     int     // index into bins of the next draw
	inflight flight  // the draw whose workers may be running
	bucketPx int     // bucket width in pixels
	order    []int32 // assignment scratch: touched sorted by load
	loads    []int   // assignment scratch: per-worker quad counts

	// Multipass state: back is the backbuffer surface, cur the surface
	// draws currently land in, rtSurfs the off-screen targets in
	// creation order (the per-pass snapshot order).
	back    *surface
	cur     *surface
	rtSurfs []*surface
	rtByRT  map[*gfxapi.RenderTarget]*surface

	// reg binds every serial-stage counter by pointer; worker shards
	// carry their own registries. Snapshots of these registries are the
	// single source of all per-frame statistics.
	reg *metrics.Registry

	frames []FrameStats
	prev   metrics.Snapshot // cumulative snapshot at last frame boundary

	// gt is the tracing state (nil unless Config.Trace was set).
	gt *gpuTracer
	// published is the cumulative snapshot at the last frame boundary,
	// readable concurrently with rendering (the /metrics live feed).
	published atomic.Pointer[metrics.Snapshot]
}

// tileDim is the screen-space binning granularity of the parallel
// backend: 8x8 pixels, matching the z/color cache line footprint, the
// HZ block and the compression metadata, so one worker owns every
// order-dependent structure a quad touches.
const tileDim = 8

// groupBlocks is the number of horizontally consecutive 8x8 blocks per
// assignment bucket (64 pixels). The shared pixel planes are row-major
// float32, so a 64-byte cache line spans 16 adjacent pixels — two
// blocks; buckets of 8 blocks keep every such line (and every whole
// 1024-byte bucket row at common widths) on one worker, where per-block
// round-robin assignment made horizontally adjacent blocks ping the
// same lines between workers.
const groupBlocks = 8

// New creates a GPU simulator with the given configuration. Zero-valued
// cache geometries, the vertex cache size, the memory rate and the
// bucket width take the Table II / Table XIV defaults, so a zero Config
// (plus a resolution) is the paper's hardware point.
func New(cfg Config) *GPU {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		cfg.Width, cfg.Height = 1024, 768
	}
	if cfg.VertexCacheSize <= 0 {
		cfg.VertexCacheSize = geom.DefaultVertexCacheSize
	}
	if cfg.ZCache == (cache.Config{}) {
		cfg.ZCache = zst.ZCacheConfig
	}
	if cfg.TexL0 == (cache.Config{}) {
		cfg.TexL0 = texture.L0Config
	}
	if cfg.TexL1 == (cache.Config{}) {
		cfg.TexL1 = texture.L1Config
	}
	if cfg.ColorCache == (cache.Config{}) {
		cfg.ColorCache = rop.ColorCacheConfig
	}
	if cfg.TileBucketBlocks <= 0 {
		cfg.TileBucketBlocks = groupBlocks
	}
	m := mem.NewControllerRate(cfg.MemBytesPerCycle)
	vs := shader.NewMachine()
	fs := shader.NewMachine()
	g := &GPU{
		Cfg:       cfg,
		Mem:       m,
		vsMachine: vs,
		fsMachine: fs,
		geom:      geom.NewPipeline(vs, m),
		rast:      rast.New(),
		zbuf:      zst.NewBufferCache(cfg.Width, cfg.Height, 0x0200_0000, m, cfg.ZCache),
		texUnit:   texture.NewUnitCaches(m, cfg.TexL0, cfg.TexL1),
		frag:      fragment.NewStage(fs),
		target:    rop.NewTargetCache(cfg.Width, cfg.Height, 0x0400_0000, m, cfg.ColorCache),
	}
	g.geom.VCache = cache.MustVertexCache(cfg.VertexCacheSize)
	g.fsMachine.Sampler = g.texUnit
	g.zbuf.Compression = cfg.ZCompression
	g.zbuf.FastClear = cfg.FastClear
	g.target.Compression = cfg.ColorCompression
	g.target.FastClear = cfg.FastClear
	g.serial = pipe{zbuf: g.zbuf, frag: g.frag, target: g.target}

	// Bind every serial-stage counter into the GPU registry. This is the
	// one place the live pipeline's counter names are wired; FrameStats
	// registers the same names via the shared prefix constants.
	g.reg = metrics.NewRegistry()
	g.geom.RegisterMetrics(g.reg, PrefixGeom)
	g.rast.RegisterMetrics(g.reg, PrefixRast)
	g.zbuf.RegisterMetrics(g.reg, PrefixZSt, PrefixZCache)
	g.frag.RegisterMetrics(g.reg, PrefixFrag)
	g.target.RegisterMetrics(g.reg, PrefixRop, PrefixColorCache)
	g.texUnit.RegisterMetrics(g.reg, PrefixTex, PrefixTexL0, PrefixTexL1)
	g.geom.VCache.RegisterMetrics(g.reg, PrefixVCache)
	g.vsMachine.RegisterMetrics(g.reg, PrefixVS)
	g.fsMachine.RegisterMetrics(g.reg, PrefixFS)
	g.Mem.RegisterMetrics(g.reg, PrefixMem)

	if cfg.TileWorkers > 1 {
		// Shards must be created after the Compression/FastClear flags
		// above are final: they copy the flags at creation.
		g.loads = make([]int, cfg.TileWorkers)
		for i := 0; i < cfg.TileWorkers; i++ {
			wmem := mem.NewControllerRate(cfg.MemBytesPerCycle)
			wfs := shader.NewMachine()
			wtex := texture.NewUnitCaches(wmem, cfg.TexL0, cfg.TexL1)
			wfs.Sampler = wtex
			w := &tileWorker{
				pipe: pipe{
					zbuf:   g.zbuf.NewShard(wmem),
					frag:   fragment.NewStage(wfs),
					target: g.target.NewShard(wmem),
				},
				fs:  wfs,
				tex: wtex,
				mem: wmem,
				reg: metrics.NewRegistry(),
			}
			// Worker counters bind under the serial names: shard
			// snapshots are a subset shape that Merge folds in.
			w.zbuf.RegisterMetrics(w.reg, PrefixZSt, PrefixZCache)
			w.frag.RegisterMetrics(w.reg, PrefixFrag)
			w.target.RegisterMetrics(w.reg, PrefixRop, PrefixColorCache)
			w.tex.RegisterMetrics(w.reg, PrefixTex, PrefixTexL0, PrefixTexL1)
			w.fs.RegisterMetrics(w.reg, PrefixFS)
			w.mem.RegisterMetrics(w.reg, PrefixMem)
			g.workers = append(g.workers, w)
		}
	}
	// The backbuffer is surface zero; off-screen render targets join
	// rtSurfs as CreateRenderTarget materializes them.
	g.back = &surface{name: "back", w: cfg.Width, h: cfg.Height, zbuf: g.zbuf, target: g.target}
	for _, w := range g.workers {
		g.back.wz = append(g.back.wz, w.zbuf)
		g.back.wt = append(g.back.wt, w.target)
	}
	g.bucketPx = tileDim * cfg.TileBucketBlocks
	g.initBuckets(g.back)
	g.cur = g.back
	g.rtByRT = map[*gfxapi.RenderTarget]*surface{}
	if cfg.Trace != nil {
		g.gt = newGPUTracer(cfg.Trace, cfg.TraceProcess, len(g.workers))
		g.serial.clk = &g.gt.serial
		for i, w := range g.workers {
			w.clk = &g.gt.worker[i]
		}
	}
	return g
}

// initBuckets sets the surface's bucket-grid width and grows both bin
// sets' grids to cover it. Only called with no draw in flight.
func (g *GPU) initBuckets(s *surface) {
	if len(g.workers) == 0 {
		return
	}
	bucketBlocks := g.bucketPx / tileDim
	blocksX := (s.w + tileDim - 1) / tileDim
	s.groupsX = (blocksX + bucketBlocks - 1) / bucketBlocks
	n := s.groupsX * ((s.h + tileDim - 1) / tileDim)
	for i := range g.bins {
		if b := &g.bins[i]; len(b.buckets) < n {
			b.buckets = append(b.buckets, make([][]quadWork, n-len(b.buckets))...)
		}
	}
}

// Target exposes the render target (for image inspection).
func (g *GPU) Target() *rop.Target {
	g.drain()
	return g.target
}

// ZBuffer exposes the depth/stencil buffer (for inspection).
func (g *GPU) ZBuffer() *zst.Buffer {
	g.drain()
	return g.zbuf
}

// Frames returns the completed per-frame statistics.
func (g *GPU) Frames() []FrameStats { return g.frames }

// cpBytesPerDraw approximates the command processor's fetch of one draw
// packet (command header plus state deltas).
const cpBytesPerDraw = 512

// zeroColors feeds WriteQuad for quads that skip shading because their
// color writes are masked off.
var zeroColors [4]gmath.Vec4

// emitCtx is the serial path's QuadEmitter: the per-draw state is
// stored by value on the GPU so the hot loop allocates neither a
// closure nor escaping state.
type emitCtx struct {
	g        *GPU
	fs       *shader.Program
	zstate   zst.State
	ropState rop.State
	earlyZ   bool
	front    bool
}

// EmitQuad routes one rasterized quad through the serial backend.
func (e *emitCtx) EmitQuad(q *rast.Quad) {
	e.g.serial.processQuad(q, e.fs, &e.zstate, &e.ropState, e.earlyZ, e.front)
}

// Execute runs one draw call through the whole pipeline. With tile
// workers it returns while the draw's fragment work may still run; the
// next call into the GPU completes it (see executeParallel).
func (g *GPU) Execute(dc *gfxapi.DrawCall) {
	// Load the unified constant file into both shader stages.
	g.vsMachine.Consts = dc.Consts
	g.fsMachine.Consts = dc.Consts

	// Bind textures.
	for unit, b := range dc.State.Tex {
		if b.Tex != nil {
			g.texUnit.Bind(unit, b.Tex, b.State)
		}
	}

	// Command processor fetch.
	g.Mem.Read(mem.ClientCP, cpBytesPerDraw)

	zstate := dc.State.Z
	if !g.Cfg.HZ {
		zstate.HZ = false
	}
	// Early z is legal when shading cannot change the outcome of the
	// depth test: no KIL (ATTILA's alpha test) in the fragment program.
	earlyZ := !dc.FS.UsesKill()

	gcfg := geom.Config{
		ViewportW: g.cur.w, ViewportH: g.cur.h, Cull: dc.State.Cull,
	}
	var drawStart, mark int64
	if g.gt != nil {
		g.gt.draws++
		drawStart = obsv.Nanotime()
		mark = drawStart
	}
	tris, _ := g.geom.Draw(dc.VB, dc.IB, dc.Prim, dc.VS, gcfg)
	if g.gt != nil {
		g.gt.serial.lap(stGeom, &mark)
	}

	rcfg := rast.Config{Width: g.cur.w, Height: g.cur.h}
	if len(g.workers) > 0 {
		g.executeParallel(tris, dc, rcfg, &zstate, earlyZ, drawStart)
		return
	}

	var pre stageClock
	if g.gt != nil {
		pre = g.gt.serial
	}
	g.emit = emitCtx{g: g, fs: dc.FS, zstate: zstate, ropState: dc.State.Rop, earlyZ: earlyZ}
	var setup rast.SetupTri
	for i := range tris {
		tri := &tris[i]
		if !rast.SetupInto(tri, &setup) {
			continue
		}
		g.emit.front = tri.FrontFacing
		g.rast.RasterizeTo(&setup, rcfg, &g.emit)
	}
	if g.gt != nil {
		g.gt.finishSerialDraw(pre, drawStart, mark, len(tris))
	}
}

// binner is the parallel path's QuadEmitter: it copies each rasterized
// quad into the bucket of the 64x8-pixel block run that owns the quad,
// in submission order. Buckets are handed to workers wholesale after
// rasterization, so binning itself never touches worker state.
type binner struct {
	set      *binSet
	groupsX  int
	bucketPx int
	front    bool
}

// EmitQuad bins one quad to its bucket.
func (bn *binner) EmitQuad(q *rast.Quad) {
	// Quads are 2x2 at even coordinates, so a quad never straddles an
	// 8x8 block; the top-left pixel identifies the bucket.
	gi := (q.Y/tileDim)*bn.groupsX + q.X/bn.bucketPx
	b := &bn.set.buckets[gi]
	if len(*b) == 0 {
		bn.set.touched = append(bn.set.touched, int32(gi))
	}
	*b = append(*b, quadWork{
		x: int32(q.X), y: int32(q.Y), mask: q.Mask, front: bn.front, z: q.Z, tri: q.Tri,
	})
}

// assignBuckets distributes a draw's non-empty buckets over the workers
// with greedy longest-processing-time scheduling: buckets sorted by quad
// count (descending, bucket index breaking ties) each go to the
// least-loaded worker so far. The assignment is deterministic, and
// because each draw's workers are drained before the next draw's start,
// ownership only has to be stable within one draw, so it can follow the
// load of every draw individually — round-robin block ownership left
// workers idle whenever the draw's coverage was spatially clustered.
func (g *GPU) assignBuckets(set *binSet) {
	buckets := set.buckets
	g.order = append(g.order[:0], set.touched...)
	sort.Slice(g.order, func(i, j int) bool {
		a, b := g.order[i], g.order[j]
		la, lb := len(buckets[a]), len(buckets[b])
		if la != lb {
			return la > lb
		}
		return a < b
	})
	for i := range g.loads {
		g.loads[i] = 0
	}
	for _, w := range g.workers {
		w.groups = w.groups[:0]
		w.quads = 0
	}
	for _, gi := range g.order {
		wi := 0
		for i := 1; i < len(g.loads); i++ {
			if g.loads[i] < g.loads[wi] {
				wi = i
			}
		}
		w := g.workers[wi]
		w.groups = append(w.groups, gi)
		n := len(buckets[gi])
		w.quads += n
		g.loads[wi] += n
	}
	// Workers drain their buckets in screen order: within one draw the
	// buckets are disjoint block sets, so any order is exact, and screen
	// order keeps the worker's private texture/z cache shards coherent
	// with the rasterizer's traversal.
	for _, w := range g.workers {
		slices.Sort(w.groups)
	}
}

// executeParallel runs the draw's fragment backend tile-parallel, with
// the front end of this draw overlapping the workers of the previous
// one:
//
//  1. set up and bin this draw into the bin set the previous draw does
//     not use;
//  2. drain the previous draw: wait for its workers, recycle its bin set
//     and emit its sampled draw span;
//  3. bind the worker constants and textures, assign the buckets and
//     launch one goroutine per worker, then return without waiting.
//
// The overlap is exact. The front end reads and writes only main-thread
// state (the geometry pipeline, the rasterizer, the shared memory
// controller's CP and vertex clients, its own bin set), never a
// worker's shard, and the workers read only per-draw copies (drawJob,
// their own bucket lists, constants bound after the drain). Every other
// entry point drains first (see drain), so Clear, render-target
// switches and resolves, snapshots and EndFrame see the workers idle.
func (g *GPU) executeParallel(tris []geom.Triangle, dc *gfxapi.DrawCall,
	rcfg rast.Config, zstate *zst.State, earlyZ bool, drawStart int64) {

	// Setups must outlive binning (queued quads point into them), so
	// they live in the bin set, reused across draws. Stale pointers into
	// an outgrown backing array stay valid: setups are never mutated
	// after SetupInto.
	var binStart int64
	if g.gt != nil {
		binStart = obsv.Nanotime()
	}
	set := &g.bins[g.next]
	set.setups = set.setups[:0]
	bn := binner{set: set, groupsX: g.cur.groupsX, bucketPx: g.bucketPx}
	for i := range tris {
		tri := &tris[i]
		if len(set.setups) == cap(set.setups) {
			set.setups = append(set.setups, rast.SetupTri{})
		} else {
			set.setups = set.setups[:len(set.setups)+1]
		}
		s := &set.setups[len(set.setups)-1]
		if !rast.SetupInto(tri, s) {
			set.setups = set.setups[:len(set.setups)-1]
			continue
		}
		bn.front = tri.FrontFacing
		g.rast.RasterizeTo(s, rcfg, &bn)
	}
	if g.gt != nil {
		g.gt.serial.lap(stRast, &binStart)
	}

	if rec := g.wait(); rec != nil {
		// The previous draw panicked: this draw never runs.
		set.recycle()
		panic(rec)
	}

	for _, w := range g.workers {
		w.fs.Consts = dc.Consts
		for unit, b := range dc.State.Tex {
			if b.Tex != nil {
				w.tex.Bind(unit, b.Tex, b.State)
			}
		}
	}
	g.assignBuckets(set)

	f := &g.inflight
	f.bins, f.tris = set, len(tris)
	job := drawJob{fs: dc.FS, zstate: *zstate, ropState: dc.State.Rop, earlyZ: earlyZ, buckets: set.buckets}
	if g.gt != nil {
		f.start, f.draw = drawStart, g.gt.draws
		f.sampled = g.gt.tr.Sampled(g.gt.draws)
		if f.sampled {
			job.tr = g.gt.tr
		}
	}
	for wi, w := range g.workers {
		if len(w.groups) == 0 {
			continue
		}
		if job.tr != nil {
			job.tk = g.gt.workerTk[wi]
		}
		f.wg.Add(1)
		go w.run(job, &f.wg)
	}
	g.next ^= 1
}

// wait completes the in-flight draw, if any: it waits for the draw's
// workers, recycles its bin set and emits its sampled draw span. It
// returns the panic of the lowest-index worker that panicked, after
// every worker has exited.
func (g *GPU) wait() any {
	f := &g.inflight
	if f.bins == nil {
		return nil
	}
	f.wg.Wait()
	var rec any
	for _, w := range g.workers {
		if rec == nil {
			rec = w.panicked
		}
		w.panicked = nil
	}
	f.bins.recycle()
	f.bins = nil
	if f.sampled {
		g.gt.tr.Emit(g.gt.drawTk, "draw", f.start, obsv.Nanotime()-f.start,
			map[string]any{"tris": int64(f.tris), "draw": int64(f.draw)})
		f.sampled = false
	}
	return rec
}

// drain completes the in-flight draw and re-raises a worker's panic on
// the caller's goroutine. Every entry point except Execute calls it
// before touching state the tile workers own, so no worker goroutine
// outlives a drain point; Execute drains after binning its own draw.
func (g *GPU) drain() {
	if rec := g.wait(); rec != nil {
		panic(rec)
	}
}

// processQuad runs one quad through HZ, z & stencil, shading and the
// color stage of this pipe.
func (p *pipe) processQuad(q *rast.Quad, fs *shader.Program,
	zstate *zst.State, ropState *rop.State, earlyZ, frontFacing bool) {

	mask := q.Mask
	clk := p.clk
	var mark int64
	if clk != nil {
		mark = obsv.Nanotime()
	}

	// Hierarchical Z runs before shading regardless of early/late z.
	if !p.zbuf.HZTestQuad(q, zstate) {
		p.zbuf.RecordHZKill(q, mask)
		if clk != nil {
			clk.lap(stZST, &mark)
		}
		return
	}

	if earlyZ {
		mask = p.zbuf.TestQuad(q, mask, zstate, frontFacing)
		if clk != nil {
			clk.lap(stZST, &mark)
		}
		if mask == 0 {
			return
		}
		if ropState.MaskedOff() {
			// Color writes are masked (z prepass, stencil volumes): the
			// quad reaches the color stage without being shaded, where
			// it is dropped — the paper's Table IX "Color Mask" bucket.
			p.target.WriteQuad(q, mask, &zeroColors, ropState)
			if clk != nil {
				clk.lap(stRop, &mark)
			}
			return
		}
		live, colors := p.frag.ShadeQuad(q, mask, fs)
		if clk != nil {
			clk.lap(stFrag, &mark)
		}
		if live == 0 {
			return
		}
		p.target.WriteQuad(q, live, colors, ropState)
		if clk != nil {
			clk.lap(stRop, &mark)
		}
		return
	}

	// Late z: shade first (the program may kill), then test.
	live, colors := p.frag.ShadeQuad(q, mask, fs)
	if clk != nil {
		clk.lap(stFrag, &mark)
	}
	if live == 0 {
		return
	}
	live = p.zbuf.TestQuad(q, live, zstate, frontFacing)
	if clk != nil {
		clk.lap(stZST, &mark)
	}
	if live == 0 {
		return
	}
	p.target.WriteQuad(q, live, colors, ropState)
	if clk != nil {
		clk.lap(stRop, &mark)
	}
}

// Clear fast-clears the requested buffers of the bound surface.
func (g *GPU) Clear(op gfxapi.ClearOp) {
	g.drain()
	g.Mem.Read(mem.ClientCP, 64)
	switch {
	case op.ClearDepth:
		g.cur.zbuf.Clear(op.Z, op.Stencil)
	case op.ClearStencil:
		g.cur.zbuf.ClearStencil(op.Stencil)
	}
	if op.ClearColor {
		g.cur.target.Clear(op.Color)
	}
}

// EndFrame flushes caches, scans out the frame and snapshots per-frame
// statistics. Shard caches flush in worker order, so the merged
// counters are deterministic for a fixed worker count.
func (g *GPU) EndFrame() {
	// The wait for the last draw's workers is charged to no stage, as in
	// Execute: the workers' own clocks cover their busy time.
	g.drain()
	var mark int64
	if g.gt != nil {
		mark = obsv.Nanotime()
	}
	// Z flushes then color flushes (each shard flushes into its own mem
	// counters, so the split loops keep the merged totals identical to
	// the interleaved order) — the split lets the stage clocks charge
	// flush time to the right stage.
	g.zbuf.FlushCache()
	for _, wz := range g.back.wz {
		wz.FlushCache()
	}
	if g.gt != nil {
		g.gt.serial.lap(stZST, &mark)
	}
	g.target.FlushCache()
	for _, wt := range g.back.wt {
		wt.FlushCache()
	}
	g.target.ScanOut()
	if g.gt != nil {
		g.gt.serial.lap(stRop, &mark)
	}

	cur := g.MetricsSnapshot()
	diff := cur.Diff(g.prev)
	g.frames = append(g.frames, frameStatsFromSnapshot(diff))
	g.prev = cur
	g.published.Store(&cur)
	if g.gt != nil {
		g.gt.endFrame(diff)
	}
}

// MetricsSnapshot captures every stage counter since construction as
// one snapshot, merging the tile-worker shards into the serial stages'
// counters. This is the machine-readable view behind both FrameStats
// and the `attilasim -metrics` export.
func (g *GPU) MetricsSnapshot() metrics.Snapshot {
	g.drain()
	s := g.reg.Snapshot()
	for _, w := range g.workers {
		s.Merge(w.reg.Snapshot())
	}
	// Off-screen pass activity folds into the same counter names, so
	// aggregate tables and bandwidth projections see multi-pass traffic
	// without any schema change.
	for _, rs := range g.rtSurfs {
		s.Merge(rs.reg.Snapshot())
		for _, wr := range rs.wreg {
			s.Merge(wr.Snapshot())
		}
	}
	return s
}

// PassSnapshots returns one merged counter snapshot per off-screen
// render target, labeled pass=<name>, in creation order — the per-pass
// dimension of the z/color cache and bandwidth metrics. Nil when the
// workload never left the backbuffer.
func (g *GPU) PassSnapshots() []metrics.Snapshot {
	g.drain()
	if len(g.rtSurfs) == 0 {
		return nil
	}
	out := make([]metrics.Snapshot, 0, len(g.rtSurfs))
	for _, rs := range g.rtSurfs {
		s := rs.reg.Snapshot()
		for _, wr := range rs.wreg {
			s.Merge(wr.Snapshot())
		}
		out = append(out, s.WithLabels("pass", rs.name))
	}
	return out
}

// CreateRenderTarget materializes the off-screen surface for rt: a
// color target and depth buffer at rt's allocated addresses, tile-worker
// shards, and per-surface registries binding the standard z/color
// counter names (so pass snapshots Merge into the aggregate).
func (g *GPU) CreateRenderTarget(rt *gfxapi.RenderTarget) {
	g.drain()
	g.ensureSurface(rt)
}

// SetRenderTarget swaps the serial pipe and every worker pipe onto the
// surface backing rt (nil selects the backbuffer). Draws and clears
// between here and the next swap land in that surface.
func (g *GPU) SetRenderTarget(rt *gfxapi.RenderTarget) {
	g.drain()
	s := g.back
	if rt != nil {
		s = g.ensureSurface(rt)
	}
	g.cur = s
	g.serial.zbuf, g.serial.target = s.zbuf, s.target
	for i, w := range g.workers {
		w.pipe.zbuf, w.pipe.target = s.wz[i], s.wt[i]
	}
}

// ResolveRenderTarget flushes the pass's dirty cache lines (serial shard
// first, then workers in order, the EndFrame discipline) and returns the
// surface's pixels quantized to RGBA8. The resolve engine's traffic —
// one color-plane read, one texture-footprint write — is charged to the
// shared memory controller.
func (g *GPU) ResolveRenderTarget(rt *gfxapi.RenderTarget) []texture.RGBA {
	g.drain()
	s := g.ensureSurface(rt)
	s.zbuf.FlushCache()
	for _, wz := range s.wz {
		wz.FlushCache()
	}
	s.target.FlushCache()
	for _, wt := range s.wt {
		wt.FlushCache()
	}
	g.Mem.Read(mem.ClientColor, int64(s.w*s.h*4))
	if rt.Tex != nil {
		g.Mem.Write(mem.ClientTexture, int64(rt.Tex.TotalBytes()))
	}
	out := make([]texture.RGBA, s.w*s.h)
	for y := 0; y < s.h; y++ {
		for x := 0; x < s.w; x++ {
			c := s.target.At(x, y).Clamp01()
			out[y*s.w+x] = texture.RGBA{
				R: uint8(c.X*255 + 0.5),
				G: uint8(c.Y*255 + 0.5),
				B: uint8(c.Z*255 + 0.5),
				A: uint8(c.W*255 + 0.5),
			}
		}
	}
	return out
}

// ensureSurface returns the surface for rt, building it on first use.
func (g *GPU) ensureSurface(rt *gfxapi.RenderTarget) *surface {
	if s, ok := g.rtByRT[rt]; ok {
		return s
	}
	s := &surface{name: rt.Name, w: rt.W, h: rt.H}
	s.zbuf = zst.NewBufferCache(rt.W, rt.H, rt.ZBaseAddr, g.Mem, g.Cfg.ZCache)
	s.target = rop.NewTargetCache(rt.W, rt.H, rt.BaseAddr, g.Mem, g.Cfg.ColorCache)
	// Flags must be final before shards copy them at creation.
	s.zbuf.Compression = g.Cfg.ZCompression
	s.zbuf.FastClear = g.Cfg.FastClear
	s.target.Compression = g.Cfg.ColorCompression
	s.target.FastClear = g.Cfg.FastClear
	s.reg = metrics.NewRegistry()
	s.zbuf.RegisterMetrics(s.reg, PrefixZSt, PrefixZCache)
	s.target.RegisterMetrics(s.reg, PrefixRop, PrefixColorCache)
	for _, w := range g.workers {
		wz := s.zbuf.NewShard(w.mem)
		wt := s.target.NewShard(w.mem)
		wr := metrics.NewRegistry()
		wz.RegisterMetrics(wr, PrefixZSt, PrefixZCache)
		wt.RegisterMetrics(wr, PrefixRop, PrefixColorCache)
		s.wz = append(s.wz, wz)
		s.wt = append(s.wt, wt)
		s.wreg = append(s.wreg, wr)
	}
	g.initBuckets(s)
	g.rtSurfs = append(g.rtSurfs, s)
	g.rtByRT[rt] = s
	return s
}

// ShardSnapshots returns the per-worker shard snapshots labeled
// shard=0..N-1 (nil for the serial pipeline) — the per-worker
// granularity of the metrics export.
func (g *GPU) ShardSnapshots() []metrics.Snapshot {
	g.drain()
	if len(g.workers) == 0 {
		return nil
	}
	out := make([]metrics.Snapshot, len(g.workers))
	for i, w := range g.workers {
		out[i] = w.reg.Snapshot().WithLabels("shard", fmt.Sprintf("%d", i))
	}
	return out
}
