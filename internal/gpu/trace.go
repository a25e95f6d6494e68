// Pipeline execution tracing: the gpu package's wiring into the obsv
// tracer. With Config.Trace set, every simulated frame emits structural
// spans — one per frame, one per pipeline stage, one per draw (sampled)
// and one per tile-worker drain (sampled) — onto tracks grouped under
// the demo's process name, so a whole characterize run opens in
// ui.perfetto.dev with tile workers as separate rows.
//
// Stage time is accounted by lightweight clocks: the serial pipe and
// each tile worker accumulate per-stage busy nanoseconds as quads flow
// through them, and EndFrame materializes the sums as one span per
// stage laid across the frame's interval. Stage spans therefore show
// busy time, not wall-clock extent: with N tile workers the fragment
// stage's span can exceed the frame span, which is exactly the
// parallelism visible at a glance.
//
// Each frame and stage span carries the frame's counter deltas from the
// metrics registry as span attributes — frame spans the full diff,
// stage spans their own namespaces — so summing the frame spans of a
// run reproduces the final snapshot exactly (pinned by trace_test.go).
//
// With Config.Trace nil every hook is a branch on a nil pointer; the
// overhead guard in bench_obsv_test.go pins the cost below 2% of a
// frame.
package gpu

import (
	"fmt"

	"gpuchar/internal/metrics"
	"gpuchar/internal/obsv"
)

// stage indexes the timed pipeline stages.
type stage int

const (
	stGeom stage = iota
	stRast
	stZST
	stFrag
	stRop
	numStages
)

// stageNames are the span names and track labels of the timed stages.
var stageNames = [numStages]string{"geom", "rast", "zst", "frag", "rop"}

// stageAttrPrefixes maps each timed stage to the counter namespaces its
// span carries. Together with the mem track the sets partition every
// namespace the GPU registry binds, so the union of one frame's stage
// attributes equals the frame span's full diff (pinned by
// TestStageSpanAttrsPartitionFrame).
var stageAttrPrefixes = [numStages][]string{
	stGeom: {PrefixGeom, PrefixVCache, PrefixVS},
	stRast: {PrefixRast},
	stZST:  {PrefixZSt, PrefixZCache},
	stFrag: {PrefixFrag, PrefixFS, PrefixTex, PrefixTexL0, PrefixTexL1},
	stRop:  {PrefixRop, PrefixColorCache},
}

// stageClock accumulates per-stage busy nanoseconds. Each clock has a
// single writer (the serial pipe or one tile worker), so no atomics:
// the frame-end reader runs after the drain.
type stageClock struct {
	ns [numStages]int64
}

// lap charges the time since *mark to stage s and advances the mark.
func (c *stageClock) lap(s stage, mark *int64) {
	now := obsv.Nanotime()
	c.ns[s] += now - *mark
	*mark = now
}

// addAll folds o's accumulators into c.
func (c *stageClock) addAll(o *stageClock) {
	for i := range c.ns {
		c.ns[i] += o.ns[i]
	}
}

// gpuTracer is a GPU's tracing state: the resolved tracks, the stage
// clocks, and the frame/draw counters driving sampling.
type gpuTracer struct {
	tr       *obsv.Tracer
	frameTk  obsv.Track
	drawTk   obsv.Track
	memTk    obsv.Track
	stageTk  [numStages]obsv.Track
	workerTk []obsv.Track

	serial stageClock
	worker []stageClock // parallel to GPU.workers
	total  stageClock   // cumulative across frames (StageNanos)

	frameStart int64
	frame      uint64
	draws      uint64
}

// newGPUTracer resolves the GPU's tracks on tr. process groups the
// tracks in the trace viewer — typically the demo name.
func newGPUTracer(tr *obsv.Tracer, process string, workers int) *gpuTracer {
	if process == "" {
		process = "gpu"
	}
	t := &gpuTracer{
		tr:         tr,
		frameTk:    tr.Track(process, "frames"),
		drawTk:     tr.Track(process, "draws"),
		memTk:      tr.Track(process, "mem"),
		frameStart: obsv.Nanotime(),
	}
	for s := stage(0); s < numStages; s++ {
		t.stageTk[s] = tr.Track(process, "stage "+stageNames[s])
	}
	for i := 0; i < workers; i++ {
		t.workerTk = append(t.workerTk, tr.Track(process, fmt.Sprintf("tile-worker-%d", i)))
	}
	t.worker = make([]stageClock, workers)
	return t
}

// finishSerialDraw closes out one serial-path draw: the rasterizer gets
// the loop's wall time minus the backend stage time charged inside
// processQuad, and a sampled draw span lands on the draws track.
func (t *gpuTracer) finishSerialDraw(pre stageClock, drawStart, loopStart int64, tris int) {
	now := obsv.Nanotime()
	backend := (t.serial.ns[stZST] - pre.ns[stZST]) +
		(t.serial.ns[stFrag] - pre.ns[stFrag]) +
		(t.serial.ns[stRop] - pre.ns[stRop])
	if rast := now - loopStart - backend; rast > 0 {
		t.serial.ns[stRast] += rast
	}
	if t.tr.Sampled(t.draws) {
		t.tr.Emit(t.drawTk, "draw", drawStart, now-drawStart,
			map[string]any{"tris": int64(tris), "draw": int64(t.draws)})
	}
}

// endFrame emits the frame's structural spans and resets the clocks.
// diff is the frame's counter activity (the cumulative snapshot minus
// the previous frame boundary's).
func (t *gpuTracer) endFrame(diff metrics.Snapshot) {
	now := obsv.Nanotime()
	frame := int64(t.frame)

	frameArgs := diff.Attrs()
	frameArgs["frame"] = frame
	t.tr.Emit(t.frameTk, "frame", t.frameStart, now-t.frameStart, frameArgs)

	merged := t.serial
	for i := range t.worker {
		merged.addAll(&t.worker[i])
		t.worker[i] = stageClock{}
	}
	t.serial = stageClock{}

	for s := stage(0); s < numStages; s++ {
		args := diff.AttrsUnder(stageAttrPrefixes[s]...)
		args["frame"] = frame
		t.tr.Emit(t.stageTk[s], stageNames[s], t.frameStart, merged.ns[s], args)
		t.total.ns[s] += merged.ns[s]
	}
	memArgs := diff.AttrsUnder(PrefixMem)
	memArgs["frame"] = frame
	t.tr.Emit(t.memTk, "mem", t.frameStart, 0, memArgs)

	t.frame++
	t.frameStart = now
}

// StageNanos returns the cumulative per-stage busy time (serial pipe
// plus all tile-worker shards) accumulated since construction, keyed by
// stage name. It returns nil unless the GPU was created with a tracer —
// the stage clocks only run while tracing. The perfbench traced run
// (`bash perfbench/run.sh`) derives its per-stage ms/frame from this.
func (g *GPU) StageNanos() map[string]int64 {
	g.drain()
	if g.gt == nil {
		return nil
	}
	sum := g.gt.total
	sum.addAll(&g.gt.serial)
	for i := range g.gt.worker {
		sum.addAll(&g.gt.worker[i])
	}
	out := make(map[string]int64, numStages)
	for s := stage(0); s < numStages; s++ {
		out[stageNames[s]] = sum.ns[s]
	}
	return out
}

// PublishedSnapshot returns the cumulative metrics snapshot captured at
// the most recent frame boundary, and whether one exists yet. Unlike
// MetricsSnapshot it is safe to call concurrently with rendering — the
// observability server's /metrics endpoint scrapes it live.
func (g *GPU) PublishedSnapshot() (metrics.Snapshot, bool) {
	p := g.published.Load()
	if p == nil {
		return metrics.Snapshot{}, false
	}
	return *p, true
}
