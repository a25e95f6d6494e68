package gpu

import (
	"strings"
	"sync"
	"testing"

	"gpuchar/internal/geom"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gmath"
	"gpuchar/internal/obsv"
	"gpuchar/internal/shader"
)

// renderTraced renders frames of fullscreen-quad draws through a GPU
// with the given tracer bound and returns the GPU for inspection.
func renderTraced(t testing.TB, tr *obsv.Tracer, workers, frames int) *GPU {
	t.Helper()
	cfg := R520Config(64, 64)
	cfg.TileWorkers = workers
	cfg.Trace = tr
	cfg.TraceProcess = "test"
	g := New(cfg)
	d := gfxapi.NewDevice(gfxapi.OpenGL, g)
	d.SetMatrix(0, gmath.Identity())
	vb, ib := fullscreenQuadVB(d, 0.5)
	vs, _ := d.CreateProgram(shader.BasicTransformVS())
	fs, _ := d.CreateProgram(shader.MustAssemble("flat", shader.FragmentProgram,
		"mov o0, c8"))
	d.SetConst(8, gmath.V4(0, 1, 0, 1))
	for f := 0; f < frames; f++ {
		d.Clear(gfxapi.ClearOp{ClearColor: true, ClearDepth: true, Z: 1})
		d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
		d.EndFrame()
	}
	return g
}

// argNums extracts an event's numeric attributes (counter deltas plus
// the "frame" correlation arg) as int64s.
func argNums(e obsv.Event) map[string]int64 {
	out := map[string]int64{}
	for k, v := range e.Args {
		if n, ok := v.(int64); ok {
			out[k] = n
		}
	}
	return out
}

// TestFrameSpanAttrsSumToSnapshot pins the export invariant the trace
// is designed around: summing the per-frame spans' counter attributes
// over a run reproduces the run's final metrics snapshot exactly.
func TestFrameSpanAttrsSumToSnapshot(t *testing.T) {
	for _, workers := range []int{0, 3} {
		tr := obsv.New(obsv.Options{})
		g := renderTraced(t, tr, workers, 3)

		sum := map[string]int64{}
		frameSpans := 0
		for _, e := range tr.Events() {
			if e.Name != "frame" || e.Ph != 'X' {
				continue
			}
			frameSpans++
			for k, v := range argNums(e) {
				if k == "frame" {
					continue
				}
				sum[k] += v
			}
		}
		if frameSpans != 3 {
			t.Fatalf("workers=%d: frame spans = %d, want 3", workers, frameSpans)
		}

		want := map[string]int64{}
		for k, v := range g.MetricsSnapshot().Attrs() {
			want[k] = v.(int64)
		}
		if len(sum) != len(want) {
			t.Errorf("workers=%d: %d summed counters, snapshot has %d non-zero",
				workers, len(sum), len(want))
		}
		for k, v := range want {
			if sum[k] != v {
				t.Errorf("workers=%d: frame-span sum %s = %d, snapshot = %d",
					workers, k, sum[k], v)
			}
		}
		for k := range sum {
			if _, ok := want[k]; !ok {
				t.Errorf("workers=%d: frame spans carry %s, absent from snapshot", workers, k)
			}
		}
	}
}

// TestStageSpanAttrsPartitionFrame pins the stage-attribute partition:
// within one frame, each counter delta appears on exactly one stage (or
// mem) span, and the union reproduces the frame span's attributes.
func TestStageSpanAttrsPartitionFrame(t *testing.T) {
	tr := obsv.New(obsv.Options{})
	renderTraced(t, tr, 2, 1)

	stageNamesSet := map[string]bool{"mem": true}
	for _, n := range stageNames {
		stageNamesSet[n] = true
	}
	var frameArgs map[string]int64
	union := map[string]int64{}
	owner := map[string]string{}
	for _, e := range tr.Events() {
		switch {
		case e.Name == "frame" && e.Ph == 'X':
			frameArgs = argNums(e)
			delete(frameArgs, "frame")
		case stageNamesSet[e.Name] && e.Ph == 'X':
			for k, v := range argNums(e) {
				if k == "frame" {
					continue
				}
				if prev, dup := owner[k]; dup {
					t.Errorf("counter %s on both %s and %s spans", k, prev, e.Name)
				}
				owner[k] = e.Name
				union[k] += v
			}
		}
	}
	if frameArgs == nil {
		t.Fatal("no frame span recorded")
	}
	if len(union) != len(frameArgs) {
		t.Errorf("stage spans carry %d counters, frame span %d", len(union), len(frameArgs))
	}
	for k, v := range frameArgs {
		if union[k] != v {
			t.Errorf("stage union %s = %d, frame span = %d", k, union[k], v)
		}
	}
	for k, st := range owner {
		if !strings.Contains(k, "/") && k != st {
			// Top-level counters ("geom", ...) should sit on their stage.
			t.Errorf("counter %s landed on span %s", k, st)
		}
	}
}

// TestStageNanosAccountsStages checks the perfbench feed: a traced run
// accumulates busy time for every pipeline stage.
func TestStageNanosAccountsStages(t *testing.T) {
	tr := obsv.New(obsv.Options{})
	g := renderTraced(t, tr, 2, 2)
	ns := g.StageNanos()
	if len(ns) != int(numStages) {
		t.Fatalf("StageNanos has %d stages, want %d", len(ns), numStages)
	}
	for _, name := range stageNames {
		if ns[name] <= 0 {
			t.Errorf("stage %s accumulated %d ns, want > 0", name, ns[name])
		}
	}
	// Untraced GPUs keep the clocks off entirely.
	if plain := New(R520Config(8, 8)); plain.StageNanos() != nil {
		t.Error("StageNanos() non-nil without a tracer")
	}
}

// TestTileParallelTraceRace is the race-detector workout for concurrent
// span emission: tile workers emit drain spans and bump stage clocks
// while another goroutine scrapes the tracer and the published
// snapshot, exactly as the observability server does mid-run.
func TestTileParallelTraceRace(t *testing.T) {
	tr := obsv.New(obsv.Options{Capacity: 1 << 12})
	cfg := R520Config(64, 64)
	cfg.TileWorkers = 4
	cfg.Trace = tr
	cfg.TraceProcess = "race"
	g := New(cfg)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			tr.Events()
			tr.Dropped()
			g.PublishedSnapshot()
		}
	}()
	d := gfxapi.NewDevice(gfxapi.OpenGL, g)
	d.SetMatrix(0, gmath.Identity())
	vb, ib := fullscreenQuadVB(d, 0.5)
	vs, _ := d.CreateProgram(shader.BasicTransformVS())
	fs, _ := d.CreateProgram(shader.MustAssemble("flat", shader.FragmentProgram,
		"mov o0, c8"))
	d.SetConst(8, gmath.V4(1, 0, 0, 1))
	for f := 0; f < 4; f++ {
		d.Clear(gfxapi.ClearOp{ClearColor: true, ClearDepth: true, Z: 1})
		d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
		d.EndFrame()
	}
	close(done)
	wg.Wait()
	if _, ok := g.PublishedSnapshot(); !ok {
		t.Fatal("no published snapshot after 4 frames")
	}
}
