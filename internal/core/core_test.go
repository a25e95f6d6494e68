package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gpuchar/internal/gpu"
	"gpuchar/internal/workloads"
)

func TestPaperDataComplete(t *testing.T) {
	// Every registry demo has a PaperAPI row; all simulated demos have a
	// PaperMicro row.
	for _, p := range workloads.Registry() {
		if _, ok := PaperAPI[p.Name]; !ok {
			t.Errorf("missing PaperAPI row for %s", p.Name)
		}
	}
	for _, name := range SimDemos {
		if _, ok := PaperMicro[name]; !ok {
			t.Errorf("missing PaperMicro row for %s", name)
		}
		if workloads.ByName(name) == nil || !workloads.ByName(name).Simulated {
			t.Errorf("%s not marked simulated", name)
		}
	}
	// Table XVI splits sum to ~100%.
	for name, row := range PaperMicro {
		sum := 0.0
		for _, v := range row.Split {
			sum += v
		}
		if math.Abs(sum-100) > 0.5 {
			t.Errorf("%s split sums to %v", name, sum)
		}
	}
	// Table III cross-check: primitives = indices/3 for pure TL demos.
	for name, row := range PaperAPI {
		if row.TLPct == 100 {
			want := row.IdxPerFrame / 3
			if math.Abs(want-row.PrimsPerFrame) > 1 {
				t.Errorf("%s prims %v != idx/3 %v", name, row.PrimsPerFrame, want)
			}
		}
	}
}

func TestRunAPIMatchesPaper(t *testing.T) {
	prof := workloads.ByName("Quake4/demo4")
	r, err := RenderAPI(prof, 100, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := PaperAPI[prof.Name]
	if got := r.AvgIndicesPerFrame(); math.Abs(got-ref.IdxPerFrame)/ref.IdxPerFrame > 0.1 {
		t.Errorf("idx/frame = %v, want ~%v", got, ref.IdxPerFrame)
	}
	if got := r.AvgVSInstr(0, 0); math.Abs(got-ref.VSInstr) > 0.3 {
		t.Errorf("VS instr = %v, want %v", got, ref.VSInstr)
	}
	if got := r.AvgFSInstr(); math.Abs(got-ref.FSInstr) > 0.3 {
		t.Errorf("FS instr = %v, want %v", got, ref.FSInstr)
	}
	if got := r.ALUTexRatio(); math.Abs(got-ref.Ratio) > 0.25 {
		t.Errorf("ALU/Tex = %v, want %v", got, ref.Ratio)
	}
	// Index BW projection is under 1 GB/s, the paper's headline point.
	if bw := r.IndexBWAt100FPS(); bw <= 0 || bw > 1024 {
		t.Errorf("index BW = %v MB/s", bw)
	}
	// Series lengths match frame count.
	if r.BatchesSeries().Len() != 100 || r.StateCallsSeries().Len() != 100 {
		t.Error("series lengths wrong")
	}
}

func TestRunMicroSmall(t *testing.T) {
	// A reduced-resolution run exercises every derived metric cheaply.
	prof := workloads.ByName("UT2004/Primeval")
	r, err := RenderMicro(prof, 2, gpu.R520Config(256, 192), MicroHooks{})
	if err != nil {
		t.Fatal(err)
	}
	clip, cull, trav := r.ClipCullPct()
	if math.Abs(clip+cull+trav-100) > 0.1 {
		t.Errorf("clip+cull+trav = %v", clip+cull+trav)
	}
	// Table VII shape survives even at reduced resolution.
	if math.Abs(clip-30) > 4 || math.Abs(cull-21) > 4 {
		t.Errorf("clip/cull = %v/%v, want ~30/21", clip, cull)
	}
	or, oz, os, ob := r.Overdraw()
	if or < oz || os < ob {
		t.Errorf("overdraw ordering broken: %v %v %v %v", or, oz, os, ob)
	}
	if or < 5 || or > 14 {
		t.Errorf("raster overdraw = %v, want UT-like ~9", or)
	}
	hz, zs, alpha, mask, blend := r.QuadKillPct()
	if sum := hz + zs + alpha + mask + blend; math.Abs(sum-100) > 1.5 {
		t.Errorf("quad buckets sum to %v", sum)
	}
	if hr := r.VertexCacheHitRate(); hr < 0.55 || hr > 0.85 {
		t.Errorf("vcache = %v", hr)
	}
	if b := r.BilinearPerRequest(); b < 2 || b > 8 {
		t.Errorf("bilinear/request = %v", b)
	}
	z, l0, _, color := r.CacheHitRates()
	if z < 80 || l0 < 80 || color < 80 {
		t.Errorf("cache hit rates = %v/%v/%v", z, l0, color)
	}
	mb, rd, wr, gbs := r.MemoryProfile()
	if mb <= 0 || gbs <= 0 || math.Abs(rd+wr-100) > 0.1 {
		t.Errorf("memory profile = %v %v %v %v", mb, rd, wr, gbs)
	}
	split := r.TrafficSplit()
	sum := 0.0
	for _, v := range split {
		sum += v
	}
	if math.Abs(sum-100) > 0.5 {
		t.Errorf("traffic split sums to %v", sum)
	}
	v, zb, sh, col := r.BytesPer()
	if v <= 0 || zb <= 0 || sh <= 0 || col <= 0 {
		t.Errorf("bytes per = %v %v %v %v", v, zb, sh, col)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 25 {
		t.Fatalf("experiments = %d, want 25 (18 tables + 7 figures)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("%s has no runner", e.ID)
		}
	}
	for _, id := range []string{"table1", "table17", "fig1", "fig8"} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if ByID("table7") == nil || ByID("nope") != nil {
		t.Error("ByID lookup broken")
	}
}

func TestStaticExperiments(t *testing.T) {
	// Table 1, 2, 6 need no workload runs.
	ctx := NewContext()
	for _, id := range []string{"table1", "table2", "table6"} {
		res, err := ByID(id).Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Tables) != 1 || len(res.Tables[0].Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
	// Table 1 lists all twelve demos.
	res, _ := ByID("table1").Run(ctx)
	if len(res.Tables[0].Rows) != 12 {
		t.Errorf("table1 rows = %d", len(res.Tables[0].Rows))
	}
}

func TestAPIExperimentsRender(t *testing.T) {
	ctx := NewContext()
	ctx.APIFrames = 30
	for _, id := range []string{"table3", "table4", "table5", "table12",
		"fig1", "fig2", "fig3", "fig8"} {
		res, err := ByID(id).Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		for _, tb := range res.Tables {
			tb.Render(&buf)
			tb.Markdown(&buf)
		}
		for _, fg := range res.Figures {
			fg.Summary(&buf)
			fg.RenderCSV(&buf)
		}
		if buf.Len() == 0 {
			t.Errorf("%s rendered nothing", id)
		}
		if !strings.Contains(strings.ToUpper(buf.String()), strings.ToUpper(id)) {
			t.Errorf("%s output missing its id", id)
		}
	}
}

func TestMicroExperimentsRenderSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("micro experiments are slow")
	}
	ctx := NewContext()
	ctx.W, ctx.H = 256, 192
	ctx.SimFrames = 1
	for _, id := range []string{"table7", "table9", "table10", "table11",
		"table13", "table14", "table15", "table16", "table17",
		"fig5", "fig6", "fig7"} {
		res, err := ByID(id).Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		for _, tb := range res.Tables {
			tb.Render(&buf)
		}
		for _, fg := range res.Figures {
			fg.Summary(&buf)
		}
		if buf.Len() == 0 {
			t.Errorf("%s rendered nothing", id)
		}
	}
}
