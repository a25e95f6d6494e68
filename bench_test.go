// Benchmark harness: one benchmark per paper table and figure, plus the
// ablation studies DESIGN.md calls out. Each benchmark regenerates its
// experiment and reports the headline metrics via b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the paper's evaluation.
//
// Microarchitectural benchmarks default to a reduced 256x192 frame so
// the whole suite runs in minutes; set GPUCHAR_BENCH_FULL=1 for the
// paper's 1024x768.
package gpuchar_test

import (
	"os"
	"testing"

	"gpuchar"
	"gpuchar/internal/core"
	"gpuchar/internal/geom"
	"gpuchar/internal/mem"
	"gpuchar/internal/workloads"
)

// benchCtx builds a fresh experiment context at benchmark scale.
func benchCtx() *gpuchar.Context {
	ctx := gpuchar.NewContext()
	ctx.APIFrames = 60
	ctx.SimFrames = 1
	if os.Getenv("GPUCHAR_BENCH_FULL") == "" {
		ctx.W, ctx.H = 256, 192
	}
	return ctx
}

// runExperiment drives one experiment per iteration.
func runExperiment(b *testing.B, id string) *gpuchar.ExperimentResult {
	b.Helper()
	var last *gpuchar.ExperimentResult
	for i := 0; i < b.N; i++ {
		res, err := gpuchar.RunExperiment(id, benchCtx())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	return last
}

// --- API-level tables and figures ---

func BenchmarkTable1Registry(b *testing.B)    { runExperiment(b, "table1") }
func BenchmarkTable2Config(b *testing.B)      { runExperiment(b, "table2") }
func BenchmarkTable6SystemBuses(b *testing.B) { runExperiment(b, "table6") }

func BenchmarkFig1BatchesPerFrame(b *testing.B) {
	res := runExperiment(b, "fig1")
	if len(res.Figures) > 0 && len(res.Figures[0].Series) > 0 {
		b.ReportMetric(res.Figures[0].Series[0].Mean(), "batches/frame")
	}
}

func BenchmarkTable3Indices(b *testing.B) {
	var last *core.APIResult
	for i := 0; i < b.N; i++ {
		r, err := gpuchar.ProfileAPI(gpuchar.ProfileByName("UT2004/Primeval"), 60)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.AvgIndicesPerFrame(), "idx/frame")
	b.ReportMetric(last.AvgIndicesPerBatch(), "idx/batch")
	b.ReportMetric(last.IndexBWAt100FPS(), "MB/s@100fps")
}

func BenchmarkFig2IndexBW(b *testing.B)    { runExperiment(b, "fig2") }
func BenchmarkFig3StateCalls(b *testing.B) { runExperiment(b, "fig3") }

func BenchmarkTable4VertexShader(b *testing.B) {
	var last *core.APIResult
	for i := 0; i < b.N; i++ {
		r, err := gpuchar.ProfileAPI(gpuchar.ProfileByName("Quake4/demo4"), 60)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.AvgVSInstr(0, 0), "VSinstr")
}

func BenchmarkTable5Primitives(b *testing.B) {
	var last *core.APIResult
	for i := 0; i < b.N; i++ {
		r, err := gpuchar.ProfileAPI(gpuchar.ProfileByName("Oblivion/Anvil Castle"), 40)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	mix := last.PrimMixPct()
	b.ReportMetric(mix[0], "TL%")
	b.ReportMetric(mix[1], "TS%")
	b.ReportMetric(last.AvgPrimitives(), "prims/frame")
}

func BenchmarkTable12FragmentShader(b *testing.B) {
	var last *core.APIResult
	for i := 0; i < b.N; i++ {
		r, err := gpuchar.ProfileAPI(gpuchar.ProfileByName("FEAR/interval2"), 60)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.AvgFSInstr(), "FSinstr")
	b.ReportMetric(last.AvgFSTex(), "FStex")
	b.ReportMetric(last.ALUTexRatio(), "ALU/tex")
}

func BenchmarkFig8FragmentInstr(b *testing.B) { runExperiment(b, "fig8") }

// --- Microarchitectural tables and figures (simulated) ---

// simBench simulates one frame of a demo per iteration and hands the
// result to report.
func simBench(b *testing.B, demo string, report func(*core.MicroResult)) {
	b.Helper()
	w, h := 256, 192
	if os.Getenv("GPUCHAR_BENCH_FULL") != "" {
		w, h = 1024, 768
	}
	prof := gpuchar.ProfileByName(demo)
	var last *core.MicroResult
	for i := 0; i < b.N; i++ {
		r, err := gpuchar.CharacterizeConfig(prof, 1, gpuchar.R520Config(w, h))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	report(last)
}

func BenchmarkFig5VertexCache(b *testing.B) {
	simBench(b, "UT2004/Primeval", func(r *core.MicroResult) {
		b.ReportMetric(r.VertexCacheHitRate(), "vcache-hit")
	})
}

func BenchmarkFig6Triangles(b *testing.B) {
	simBench(b, "Doom3/trdemo2", func(r *core.MicroResult) {
		idx, asm, trav := r.TriangleFlowSeries()
		b.ReportMetric(idx.Mean(), "indices/frame")
		b.ReportMetric(asm.Mean(), "assembled/frame")
		b.ReportMetric(trav.Mean(), "traversed/frame")
	})
}

func BenchmarkTable7ClipCull(b *testing.B) {
	simBench(b, "Quake4/demo4", func(r *core.MicroResult) {
		clip, cull, trav := r.ClipCullPct()
		b.ReportMetric(clip, "clip%")
		b.ReportMetric(cull, "cull%")
		b.ReportMetric(trav, "trav%")
	})
}

func BenchmarkFig7TriangleSize(b *testing.B) {
	simBench(b, "UT2004/Primeval", func(r *core.MicroResult) {
		raster, _, _ := r.TriangleSizeSeries()
		b.ReportMetric(raster.Mean(), "frags/tri")
	})
}

func BenchmarkTable8TriangleSize(b *testing.B) {
	simBench(b, "Doom3/trdemo2", func(r *core.MicroResult) {
		raster, _, _, blend := r.TriangleSize()
		b.ReportMetric(raster, "raster-frags/tri")
		b.ReportMetric(blend, "blend-frags/tri")
	})
}

func BenchmarkTable9QuadKills(b *testing.B) {
	simBench(b, "Doom3/trdemo2", func(r *core.MicroResult) {
		hz, zs, _, mask, blend := r.QuadKillPct()
		b.ReportMetric(hz, "HZ%")
		b.ReportMetric(zs, "zst%")
		b.ReportMetric(mask, "mask%")
		b.ReportMetric(blend, "blend%")
	})
}

func BenchmarkTable10QuadEfficiency(b *testing.B) {
	simBench(b, "UT2004/Primeval", func(r *core.MicroResult) {
		raster, zs := r.QuadEfficiency()
		b.ReportMetric(raster, "raster%")
		b.ReportMetric(zs, "zst%")
	})
}

func BenchmarkTable11Overdraw(b *testing.B) {
	simBench(b, "Quake4/demo4", func(r *core.MicroResult) {
		raster, zs, shade, blend := r.Overdraw()
		b.ReportMetric(raster, "raster-od")
		b.ReportMetric(zs, "zst-od")
		b.ReportMetric(shade, "shade-od")
		b.ReportMetric(blend, "blend-od")
	})
}

func BenchmarkTable13Bilinear(b *testing.B) {
	simBench(b, "UT2004/Primeval", func(r *core.MicroResult) {
		b.ReportMetric(r.BilinearPerRequest(), "bilinear/req")
		b.ReportMetric(r.ALUPerBilinear(), "ALU/bilinear")
	})
}

func BenchmarkTable14Caches(b *testing.B) {
	simBench(b, "Doom3/trdemo2", func(r *core.MicroResult) {
		z, l0, _, color := r.CacheHitRates()
		b.ReportMetric(z, "zcache%")
		b.ReportMetric(l0, "texL0%")
		b.ReportMetric(color, "colorcache%")
	})
}

func BenchmarkTable15Memory(b *testing.B) {
	simBench(b, "UT2004/Primeval", func(r *core.MicroResult) {
		mb, rd, _, gbs := r.MemoryProfile()
		b.ReportMetric(mb, "MB/frame")
		b.ReportMetric(rd, "read%")
		b.ReportMetric(gbs, "GB/s@100fps")
	})
}

func BenchmarkTable16TrafficSplit(b *testing.B) {
	simBench(b, "Doom3/trdemo2", func(r *core.MicroResult) {
		s := r.TrafficSplit()
		b.ReportMetric(s[mem.ClientZStencil], "zst%")
		b.ReportMetric(s[mem.ClientTexture], "tex%")
		b.ReportMetric(s[mem.ClientColor], "color%")
	})
}

func BenchmarkTable17BytesPer(b *testing.B) {
	simBench(b, "Quake4/demo4", func(r *core.MicroResult) {
		v, zs, sh, col := r.BytesPer()
		b.ReportMetric(v, "B/vertex")
		b.ReportMetric(zs, "B/zst-frag")
		b.ReportMetric(sh, "B/shaded-frag")
		b.ReportMetric(col, "B/blend-frag")
	})
}

// --- Ablation studies (DESIGN.md) ---

// ablationRun simulates one frame with a configuration tweak.
func ablationRun(b *testing.B, demo string, tweak func(*gpuchar.GPUConfig),
	metric func(*core.MicroResult) (float64, string)) {
	b.Helper()
	w, h := 256, 192
	if os.Getenv("GPUCHAR_BENCH_FULL") != "" {
		w, h = 1024, 768
	}
	prof := gpuchar.ProfileByName(demo)
	var last *core.MicroResult
	for i := 0; i < b.N; i++ {
		cfg := gpuchar.R520Config(w, h)
		if tweak != nil {
			tweak(&cfg)
		}
		r, err := gpuchar.CharacterizeConfig(prof, 1, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	v, name := metric(last)
	b.ReportMetric(v, name)
}

// Hierarchical Z on/off: the paper credits HZ with removing 50-90% of
// the z-killed fragments before they cost GDDR bandwidth.
func BenchmarkAblationHZOn(b *testing.B) {
	ablationRun(b, "Doom3/trdemo2", nil, func(r *core.MicroResult) (float64, string) {
		mb, _, _, _ := r.MemoryProfile()
		return mb, "MB/frame"
	})
}

func BenchmarkAblationHZOff(b *testing.B) {
	ablationRun(b, "Doom3/trdemo2", func(c *gpuchar.GPUConfig) { c.HZ = false },
		func(r *core.MicroResult) (float64, string) {
			mb, _, _, _ := r.MemoryProfile()
			return mb, "MB/frame"
		})
}

// Z compression + fast clear on/off: the paper credits them with halving
// z & stencil bandwidth.
func BenchmarkAblationZCompressOn(b *testing.B) {
	ablationRun(b, "Quake4/demo4", nil, func(r *core.MicroResult) (float64, string) {
		_, zs, _, _ := r.BytesPer()
		return zs, "B/zst-frag"
	})
}

func BenchmarkAblationZCompressOff(b *testing.B) {
	ablationRun(b, "Quake4/demo4", func(c *gpuchar.GPUConfig) {
		c.ZCompression = false
		c.FastClear = false
	}, func(r *core.MicroResult) (float64, string) {
		_, zs, _, _ := r.BytesPer()
		return zs, "B/zst-frag"
	})
}

// Vertex cache size sweep around the paper's ~66% bound.
func BenchmarkAblationVCache4(b *testing.B)  { vcacheAblation(b, 4) }
func BenchmarkAblationVCache16(b *testing.B) { vcacheAblation(b, 16) }
func BenchmarkAblationVCache64(b *testing.B) { vcacheAblation(b, 64) }

func vcacheAblation(b *testing.B, size int) {
	b.Helper()
	ablationRun(b, "UT2004/Primeval", func(c *gpuchar.GPUConfig) {
		c.VertexCacheSize = size
	}, func(r *core.MicroResult) (float64, string) {
		return r.VertexCacheHitRate(), "vcache-hit"
	})
}

// Triangle lists vs strips under a vertex cache: the paper's Table V
// discussion — with the cache, lists shade exactly as few vertices as
// strips, so developers pick lists and pay only index bandwidth.
func BenchmarkAblationListVsStrip(b *testing.B) {
	var st workloads.SharingStats
	for i := 0; i < b.N; i++ {
		st = workloads.ListVsStrip(100_000, 16)
	}
	b.ReportMetric(float64(st.ListShades)/float64(st.StripShades), "shade-ratio")
	b.ReportMetric(float64(st.ListIndices)/float64(st.StripIndices), "index-ratio")
}

// Front-to-back vs back-to-front draw order sensitivity of HZ: measured
// through the UT2004 frame which mixes both.
func BenchmarkAblationDrawOrder(b *testing.B) {
	ablationRun(b, "UT2004/Primeval", nil, func(r *core.MicroResult) (float64, string) {
		hz, _, _, _, _ := r.QuadKillPct()
		return hz, "HZ-kill%"
	})
}

// --- End-to-end pipeline throughput ---

func BenchmarkPipelineFrameUT2004(b *testing.B) {
	benchFrame(b, "UT2004/Primeval")
}

func BenchmarkPipelineFrameDoom3(b *testing.B) {
	benchFrame(b, "Doom3/trdemo2")
}

func BenchmarkPipelineFrameQuake4(b *testing.B) {
	benchFrame(b, "Quake4/demo4")
}

func benchFrame(b *testing.B, demo string) {
	b.Helper()
	w, h := 256, 192
	if os.Getenv("GPUCHAR_BENCH_FULL") != "" {
		w, h = 1024, 768
	}
	prof := gpuchar.ProfileByName(demo)
	g := gpuchar.NewGPU(gpuchar.R520Config(w, h))
	dev := gpuchar.NewDevice(prof.API, g)
	wl := gpuchar.NewWorkload(prof, dev, w, h)
	if err := wl.Setup(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wl.RenderFrame()
	}
	b.StopTimer()
	frames := g.Frames()
	if len(frames) > 0 {
		var frags int64
		for _, f := range frames {
			frags += f.Rast.Fragments
		}
		b.ReportMetric(float64(frags)/float64(len(frames)), "frags/frame")
	}
}

// BenchmarkAPIFrame measures the pure API-level path (null backend).
func BenchmarkAPIFrame(b *testing.B) {
	prof := gpuchar.ProfileByName("Half Life 2 LC/built-in")
	dev := gpuchar.NewDevice(prof.API, gpuchar.NullBackend{})
	wl := gpuchar.NewWorkload(prof, dev, 1024, 768)
	if err := wl.Setup(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wl.RenderFrame()
	}
}

// sanity: the workloads registry stays consistent with the paper data.
func BenchmarkRegistryLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range workloads.Registry() {
			if gpuchar.ProfileByName(p.Name) == nil {
				b.Fatal("lookup failed")
			}
		}
	}
	_ = geom.TriangleList
}
