package core

import (
	"gpuchar/internal/gpu"
	"gpuchar/internal/mem"
	"gpuchar/internal/metrics"
	"gpuchar/internal/stats"
	"gpuchar/internal/workloads"
)

// MicroResult is the microarchitectural characterization of one
// simulated demo: per-frame GPU statistics plus the derived metrics of
// the paper's Tables VII-XVII and Figures 5-7.
type MicroResult struct {
	Prof   *workloads.Profile
	W, H   int
	Frames []gpu.FrameStats
	Agg    gpu.FrameStats
	// Pass holds one whole-run counter snapshot per off-screen render
	// target (labeled pass=<name>), nil for single-pass demos — the
	// per-pass dimension of the multi-pass workloads' cache and
	// bandwidth metrics.
	Pass []metrics.Snapshot
}

// MicroResultFromGPU wraps an already-run GPU's frames as a MicroResult,
// aggregating the per-frame statistics. It is the single place the
// aggregate is computed, shared by RenderMicro and callers that drive
// the pipeline themselves (attilasim's -png path).
func MicroResultFromGPU(prof *workloads.Profile, g *gpu.GPU, cfg gpu.Config) *MicroResult {
	r := &MicroResult{Prof: prof, W: cfg.Width, H: cfg.Height, Frames: g.Frames(),
		Pass: g.PassSnapshots()}
	for _, f := range r.Frames {
		r.Agg.Accumulate(f)
	}
	return r
}

func (r *MicroResult) screen() float64 { return float64(r.W * r.H) }

func (r *MicroResult) nframes() float64 { return float64(len(r.Frames)) }

// ClipCullPct returns the Table VII percentages (clipped, culled,
// traversed).
func (r *MicroResult) ClipCullPct() (clip, cull, trav float64) {
	a := r.Agg.Geom.TrianglesAssembled
	return stats.Percent(r.Agg.Geom.TrianglesClipped, a),
		stats.Percent(r.Agg.Geom.TrianglesCulled, a),
		stats.Percent(r.Agg.Geom.TrianglesTraversed, a)
}

// VertexCacheHitRate returns the Figure 5 post-transform hit rate.
func (r *MicroResult) VertexCacheHitRate() float64 {
	return r.Agg.VCache.HitRate()
}

// Overdraw returns the Table XI per-pixel overdraw at the four stages.
// The z & stencil figure excludes quads the Hierarchical Z removed, as
// in the paper (its z&st overdraw is below the raster one by the HZ
// kills).
func (r *MicroResult) Overdraw() (raster, zs, shade, blend float64) {
	den := r.nframes() * r.screen()
	zsFrags := r.Agg.ZSt.FragmentsIn - 4*r.Agg.ZSt.QuadsKilledHZ // conservative: HZ kills whole quads
	return float64(r.Agg.Rast.Fragments) / den,
		float64(zsFrags) / den,
		float64(r.Agg.Frag.FragmentsShaded) / den,
		float64(r.Agg.Rop.Fragments) / den
}

// TriangleSize returns the Table VIII average triangle size (fragments)
// at the four stages, computed as stage fragments over traversed
// triangles.
func (r *MicroResult) TriangleSize() (raster, zs, shade, blend float64) {
	tr := float64(r.Agg.Geom.TrianglesTraversed)
	if tr == 0 {
		return 0, 0, 0, 0
	}
	or, oz, os, ob := r.Overdraw()
	scale := r.nframes() * r.screen() / tr
	return or * scale, oz * scale, os * scale, ob * scale
}

// QuadKillPct returns the Table IX percentages over all rasterized
// quads: removed at HZ, at z & stencil, at alpha test, at the color
// mask, and finally blended.
func (r *MicroResult) QuadKillPct() (hz, zs, alpha, mask, blend float64) {
	tot := r.Agg.Rast.QuadsEmitted
	return stats.Percent(r.Agg.ZSt.QuadsKilledHZ, tot),
		stats.Percent(r.Agg.ZSt.QuadsKilled, tot),
		stats.Percent(r.Agg.Frag.QuadsKilledAlpha, tot),
		stats.Percent(r.Agg.Rop.QuadsMasked, tot),
		stats.Percent(r.Agg.Rop.QuadsOut, tot)
}

// QuadEfficiency returns the Table X complete-quad percentages at the
// rasterizer and after the z & stencil test.
func (r *MicroResult) QuadEfficiency() (raster, zs float64) {
	raster = r.Agg.Rast.QuadEfficiency()
	zs = 100 * stats.Ratio(r.Agg.ZSt.CompleteOut, r.Agg.ZSt.QuadsOut)
	return raster, zs
}

// BilinearPerRequest returns the Table XIII dynamic filtering cost.
func (r *MicroResult) BilinearPerRequest() float64 {
	return r.Agg.Tex.AvgBilinearPerRequest()
}

// ALUPerBilinear returns the Table XIII shader-to-texture throughput
// ratio: executed fragment ALU instructions per bilinear sample.
func (r *MicroResult) ALUPerBilinear() float64 {
	if r.Agg.Tex.BilinearSamples == 0 {
		return 0
	}
	alu := r.Agg.FS.Instructions - r.Agg.FS.TexInstructions
	return float64(alu) / float64(r.Agg.Tex.BilinearSamples)
}

// CacheHitRates returns the Table XIV hit rates in percent (z&stencil,
// texture L0, texture L1, color).
func (r *MicroResult) CacheHitRates() (z, l0, l1, color float64) {
	return 100 * r.Agg.ZCache.HitRate(), 100 * r.Agg.TexL0.HitRate(),
		100 * r.Agg.TexL1.HitRate(), 100 * r.Agg.ColorCache.HitRate()
}

// MemoryProfile returns the Table XV per-frame traffic: MB/frame, read
// and write percentages, and GB/s at 100 fps.
func (r *MicroResult) MemoryProfile() (mbPerFrame, readPct, writePct, gbs float64) {
	tot := mem.SumTraffic(r.Agg.Mem)
	perFrame := float64(tot.Total()) / r.nframes()
	mbPerFrame = mem.MB(perFrame)
	if tot.Total() > 0 {
		readPct = 100 * float64(tot.ReadBytes) / float64(tot.Total())
		writePct = 100 - readPct
	}
	gbs = mem.GBs(mem.BWAtFPS(perFrame, 100))
	return
}

// TrafficSplit returns the Table XVI per-stage share of memory traffic
// in percent, in client order.
func (r *MicroResult) TrafficSplit() [6]float64 {
	tot := mem.SumTraffic(r.Agg.Mem).Total()
	var out [6]float64
	if tot == 0 {
		return out
	}
	for c := 0; c < int(mem.NumClients); c++ {
		out[c] = 100 * float64(r.Agg.Mem[c].Total()) / float64(tot)
	}
	return out
}

// BytesPer returns the Table XVII per-unit traffic: bytes per shaded
// vertex and bytes per fragment at the z & stencil, shading and color
// stages.
func (r *MicroResult) BytesPer() (vertex, zs, shade, color float64) {
	if v := r.Agg.Geom.VerticesShaded; v > 0 {
		vertex = float64(r.Agg.Mem[mem.ClientVertex].Total()) / float64(v)
	}
	zsFrags := r.Agg.ZSt.FragmentsIn - 4*r.Agg.ZSt.QuadsKilledHZ
	if zsFrags > 0 {
		zs = float64(r.Agg.Mem[mem.ClientZStencil].Total()) / float64(zsFrags)
	}
	if f := r.Agg.Frag.FragmentsShaded; f > 0 {
		shade = float64(r.Agg.Mem[mem.ClientTexture].Total()) / float64(f)
	}
	if f := r.Agg.Rop.Fragments; f > 0 {
		color = float64(r.Agg.Mem[mem.ClientColor].Total()) / float64(f)
	}
	return
}

// VCacheSeries returns the Figure 5 per-frame vertex cache hit rate.
func (r *MicroResult) VCacheSeries() *stats.Series {
	s := stats.NewSeries(r.Prof.Name)
	for _, f := range r.Frames {
		s.Append(f.VCache.HitRate())
	}
	return s
}

// TriangleFlowSeries returns the Figure 6 per-frame indices, assembled
// and traversed triangle counts.
func (r *MicroResult) TriangleFlowSeries() (idx, asm, trav *stats.Series) {
	idx = stats.NewSeries(r.Prof.Name + " indices")
	asm = stats.NewSeries(r.Prof.Name + " assembled")
	trav = stats.NewSeries(r.Prof.Name + " traversed")
	for _, f := range r.Frames {
		idx.Append(float64(f.Geom.Indices))
		asm.Append(float64(f.Geom.TrianglesAssembled))
		trav.Append(float64(f.Geom.TrianglesTraversed))
	}
	return
}

// TriangleSizeSeries returns the Figure 7 per-frame average triangle
// size at the raster, z & stencil and shading stages.
func (r *MicroResult) TriangleSizeSeries() (raster, zs, shade *stats.Series) {
	raster = stats.NewSeries(r.Prof.Name + " raster")
	zs = stats.NewSeries(r.Prof.Name + " zst")
	shade = stats.NewSeries(r.Prof.Name + " shaded")
	for _, f := range r.Frames {
		tr := float64(f.Geom.TrianglesTraversed)
		if tr == 0 {
			tr = 1
		}
		raster.Append(float64(f.Rast.Fragments) / tr)
		zs.Append(float64(f.ZSt.FragmentsIn-4*f.ZSt.QuadsKilledHZ) / tr)
		shade.Append(float64(f.Frag.FragmentsShaded) / tr)
	}
	return
}
