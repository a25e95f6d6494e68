package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gpu"
	"gpuchar/internal/metrics"
	"gpuchar/internal/obsv"
	"gpuchar/internal/workloads"
)

// frameW, frameH is the simulated resolution of the frame workloads.
const frameW, frameH = 256, 192

// tableFrames is how many timed frames per demo the expected-digest
// table covers (frames 1..tableFrames after the warm-up frame 0).
const tableFrames = 40

// windowCap times its nominal length is the longest a window may run
// before it closes short of its rounds: only a slowdown of that size
// changes which frames the window measures.
const windowCap = 3

// setupReps is how many times a frame workload builds its demos; the
// last build is the one the window renders with.
const setupReps = 3

// frameWorkload is one of the two frame-throughput workloads.
type frameWorkload struct {
	demos       []string
	tileWorkers int
	// roundS is the nominal cost of one round in seconds, measured on
	// the two-vCPU host the benchmark was sized on. It only sizes the
	// window: a run of --seconds renders the fixed frames 1..rounds of
	// every demo, whatever the speed of the code under test, so two
	// versions are timed on the same frames.
	roundS float64
}

// rounds is how many rounds a window of the given length renders.
func (fw frameWorkload) rounds(window time.Duration) int {
	n := int(math.Round(window.Seconds() / fw.roundS))
	return max(2, min(n, tableFrames))
}

var frameWorkloads = map[string]frameWorkload{
	"paper-frames": {
		demos:       []string{"UT2004/Primeval", "Doom3/trdemo2", "Quake4/demo4"},
		tileWorkers: 1,
		roundS:      3.0,
	},
	"multipass-parallel": {
		demos:       []string{"Deferred/gbuffer", "ShadowMap/cascades", "ParticleStorm/overdraw"},
		tileWorkers: 2,
		roundS:      2.3,
	},
}

// rig is one live demo: a GPU behind the timing backend, the device
// and the workload generator.
type rig struct {
	demo  string
	tw    int
	g     *gpu.GPU
	be    *timedBackend
	wl    *workloads.Workload
	prev  metrics.Snapshot
	frame int // index of the next frame to render
}

// newRig builds a demo and renders its untimed warm-up frame 0, so lazy
// state (texture materialization, first-touch allocations, the level
// load burst) lands in set-up, not in the window.
func newRig(demo string, tw int, tr *obsv.Tracer) (r *rig, err error) {
	prof := workloads.ByName(demo)
	if prof == nil || !prof.Simulated {
		return nil, fmt.Errorf("unknown simulated demo %q", demo)
	}
	cfg := gpu.R520Config(frameW, frameH)
	cfg.TileWorkers = tw
	cfg.Trace = tr
	cfg.TraceProcess = demo
	g := gpu.New(cfg)
	be := &timedBackend{g: g}
	wl := workloads.New(prof, gfxapi.NewDevice(prof.API, be), frameW, frameH)
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%s: set-up panic: %v", demo, rec)
		}
	}()
	if err := wl.Setup(); err != nil {
		return nil, fmt.Errorf("%s: %w", demo, err)
	}
	wl.RenderFrame()
	return &rig{demo: demo, tw: tw, g: g, be: be, wl: wl, prev: g.MetricsSnapshot(), frame: 1}, nil
}

// frameSample is what rendering one frame produced.
type frameSample struct {
	wall     time.Duration // RenderFrame wall time
	backend  backendTimes  // time inside the GPU during it
	snapshot time.Duration // the benchmark's own MetricsSnapshot call
	diff     metrics.Snapshot
	digest   string
}

// render draws the rig's next frame and digests its output.
func (r *rig) render() (s frameSample, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%s frame %d: panic: %v", r.demo, r.frame, rec)
		}
	}()
	b0 := r.be.t
	t0 := time.Now()
	r.wl.RenderFrame()
	s.wall = time.Since(t0)
	s.backend = r.be.t.sub(b0)
	t1 := time.Now()
	snap := r.g.MetricsSnapshot()
	s.snapshot = time.Since(t1)
	s.diff = snap.Diff(r.prev)
	r.prev = snap
	s.digest = frameDigest(s.diff, r.g)
	r.frame++
	return s, nil
}

// frameDigest hashes a frame's simulated counters and the backbuffer
// contents: the frame's complete observable output.
func frameDigest(diff metrics.Snapshot, g *gpu.GPU) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range diff.Counters() {
		h.Write([]byte(c.Name))
		binary.LittleEndian.PutUint64(b[:], uint64(c.Int))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(c.Float))
		h.Write(b[:])
	}
	t := g.Target()
	w, hh := t.Size()
	row := make([]byte, 0, w*16)
	for y := 0; y < hh; y++ {
		row = row[:0]
		for x := 0; x < w; x++ {
			p := t.At(x, y)
			for _, f := range [4]float32{p.X, p.Y, p.Z, p.W} {
				row = binary.LittleEndian.AppendUint32(row, math.Float32bits(f))
			}
		}
		h.Write(row)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// frameKey indexes the expected-digest table.
func frameKey(demo string, tw, frame int) string {
	return fmt.Sprintf("%s|tw%d|f%d", demo, tw, frame)
}

// buildRigs constructs every demo of a workload.
func buildRigs(fw frameWorkload, tr *obsv.Tracer) ([]*rig, error) {
	var rigs []*rig
	for _, d := range fw.demos {
		r, err := newRig(d, fw.tileWorkers, tr)
		if err != nil {
			return nil, err
		}
		rigs = append(rigs, r)
	}
	return rigs, nil
}

// window is what one timed window over a set of rigs measured.
type window struct {
	rounds    []float64 // round wall times, ms
	elapsed   time.Duration
	frames    int
	backend   backendTimes
	wall      time.Duration // sum of RenderFrame wall times
	snapshots []float64     // MetricsSnapshot durations, us
	counters  metrics.Snapshot
	allocs    uint64 // heap bytes allocated during the window
	gcCPU     float64
}

// runWindow renders a fixed number of rounds — one frame of each demo,
// in a seeded order — checking every frame's digest. It closes early
// only if the rounds overrun limit.
func runWindow(rigs []*rig, rounds int, limit time.Duration, rng *rand.Rand, expected *expectedTable, o *outcome) window {
	var w window
	alloc0, gc0 := runtimeCounters()
	start := time.Now()
	for len(w.rounds) < rounds && rigs[0].frame <= tableFrames {
		if time.Since(start) >= limit {
			o.note("window closed after %d of %d rounds: over %s", len(w.rounds), rounds, limit)
			break
		}
		var round time.Duration
		for _, i := range rng.Perm(len(rigs)) {
			r := rigs[i]
			key := frameKey(r.demo, r.tw, r.frame)
			o.attempted++
			s, err := r.render()
			if err != nil {
				o.fail("%v", err)
				continue
			}
			if want := expected.Frames[key]; s.digest != want {
				o.fail("%s: digest %s, expected %q", key, s.digest, want)
			}
			round += s.wall
			w.frames++
			w.wall += s.wall
			w.backend = w.backend.add(s.backend)
			w.snapshots = append(w.snapshots, float64(s.snapshot)/1e3)
			w.counters.Merge(s.diff)
		}
		w.rounds = append(w.rounds, ms(round))
	}
	w.elapsed = time.Since(start)
	alloc1, gc1 := runtimeCounters()
	w.allocs, w.gcCPU = alloc1-alloc0, gc1-gc0
	return w
}

// runFrames runs a frame workload. Untraced, it sets up setupReps times
// and times one window; traced, it times an untraced half window, then
// a half window on GPUs with the obsv stage clocks bound under a CPU
// profile.
func runFrames(name string, seed int64, seconds int, traced bool) *outcome {
	fw := frameWorkloads[name]
	o := newOutcome()
	expected, err := loadExpected()
	if err != nil {
		o.fail("%v", err)
		return o
	}
	rng := rand.New(rand.NewSource(seed))
	window := time.Duration(seconds) * time.Second
	if !traced {
		var setups []float64
		var rigs []*rig
		for i := 0; i < setupReps; i++ {
			rigs = nil
			runtime.GC()
			t0 := time.Now()
			rigs, err = buildRigs(fw, nil)
			if err != nil {
				o.attempted++
				o.fail("set-up: %v", err)
				return o
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		runtime.GC()
		w := runWindow(rigs, fw.rounds(window), windowCap*window, rng, expected, o)
		o.set("setup_s", median(setups))
		setFrameEndToEnd(o, w)
		runtime.KeepAlive(rigs)
		return o
	}

	half := window / 2
	rigs, err := buildRigs(fw, nil)
	if err != nil {
		o.attempted++
		o.fail("set-up: %v", err)
		return o
	}
	u := runWindow(rigs, fw.rounds(half), windowCap*half, rng, expected, o)
	setFrameEndToEnd(o, u)
	setFrameUntracedLayers(o, u)
	rigs = nil
	runtime.GC()

	tr := obsv.New(obsv.Options{SampleEvery: 4})
	rigs, err = buildRigs(fw, tr)
	if err != nil {
		o.attempted++
		o.fail("traced set-up: %v", err)
		return o
	}
	stage0 := sumStageNanos(rigs)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		o.fail("cpu profile: %v", err)
		return o
	}
	t := runWindow(rigs, fw.rounds(half), windowCap*half, rng, expected, o)
	pprof.StopCPUProfile()
	stage1 := sumStageNanos(rigs)
	setFrameTracedLayers(o, u, t, stage0, stage1, &prof, tr, fw.tileWorkers)
	return o
}

// setFrameEndToEnd derives the end-to-end metrics of a window.
func setFrameEndToEnd(o *outcome, w window) {
	o.set("op_ms_p50", median(w.rounds))
	o.set("ops_per_s", float64(len(w.rounds))/w.elapsed.Seconds())
	o.set("live_heap_mb", liveHeapMB())
	o.note("rounds %d, frames %d, window %.2fs, round ms %.0f", len(w.rounds), w.frames,
		w.elapsed.Seconds(), w.rounds)
}

// setFrameUntracedLayers derives the per-layer metrics an untraced
// window measures: the Backend wrapper's host times, the simulated
// counts, and the Go runtime's allocation and GC cost.
func setFrameUntracedLayers(o *outcome, w window) {
	n := float64(w.frames)
	if n == 0 {
		return
	}
	b := w.backend
	o.set("gfxapi.host_ms_per_frame", ms(w.wall-b.total())/n)
	o.set("gpu.execute_ms_per_frame", ms(b.execute)/n)
	o.set("gpu.us_per_draw", ratio(float64(b.execute)/1e3, float64(b.draws)))
	o.set("gpu.draws_per_frame", float64(b.draws)/n)
	o.set("gpu.endframe_ms_per_frame", ms(b.endFrame)/n)
	o.set("gpu.rt_ms_per_frame", ms(b.rt)/n)
	c := w.counters
	get := func(name string) float64 { v, _ := c.Get(name); return float64(v) }
	hitRate := func(prefix string) float64 {
		h := get(prefix + "/hits")
		return ratio(h, h+get(prefix+"/misses"))
	}
	o.set("gpu.sim_mfrags_per_s", get("rast/fragments")/1e6/w.elapsed.Seconds())
	o.set("fragment.shaded_quads_per_frame", get("frag/quads_shaded")/n)
	o.set("texture.bilinear_per_frame", get("tex/bilinear_samples")/n)
	o.set("geom.vertices_shaded_per_frame", get("geom/vertices_shaded")/n)
	o.set("cache.texl0_hit_rate", hitRate(gpu.PrefixTexL0))
	o.set("cache.texl1_hit_rate", hitRate(gpu.PrefixTexL1))
	o.set("cache.z_hit_rate", hitRate(gpu.PrefixZCache))
	var memBytes float64
	for _, ctr := range c.Counters() {
		if len(ctr.Name) > 4 && ctr.Name[:4] == gpu.PrefixMem+"/" {
			memBytes += ctr.Value()
		}
	}
	o.set("mem.mb_per_frame", memBytes/(1<<20)/n)
	o.set("runtime.alloc_mb_per_frame", float64(w.allocs)/(1<<20)/n)
	o.set("runtime.gc_ms_per_frame", w.gcCPU*1e3/n)
	o.set("metrics.snapshot_us", median(w.snapshots))
}

// setFrameTracedLayers derives the stage clocks, per-package self
// times, drain imbalance and tracing overhead of the traced window t,
// against the untraced window u.
func setFrameTracedLayers(o *outcome, u, t window, stage0, stage1 map[string]int64,
	prof *bytes.Buffer, tr *obsv.Tracer, tileWorkers int) {
	n := float64(t.frames)
	if n == 0 {
		return
	}
	stageNs := map[string]float64{}
	for _, s := range []string{"geom", "rast", "zst", "frag", "rop"} {
		stageNs[s] = float64(stage1[s] - stage0[s])
		o.set("gpu."+s+"_ms_per_frame", stageNs[s]/1e6/n)
	}
	self, err := packageSelfTime(prof.Bytes())
	if err != nil {
		o.fail("cpu profile: %v", err)
	}
	for _, p := range []string{"texture", "cache", "shader", "fragment", "rast", "geom", "zst", "rop"} {
		o.set(p+".self_ms_per_frame", float64(self[p])/1e6/n)
	}
	get := func(name string) float64 { v, _ := t.counters.Get(name); return float64(v) }
	o.set("gpu.frag_ns_per_shaded_quad", ratio(stageNs["frag"], get("frag/quads_shaded")))
	o.set("texture.ns_per_bilinear", ratio(float64(self["texture"]+self["cache"]), get("tex/bilinear_samples")))
	o.set("gpu.geom_ns_per_vertex", ratio(stageNs["geom"], get("geom/vertices_shaded")))
	if tileWorkers > 1 {
		imb, err := drainImbalance(tr)
		if err != nil {
			o.fail("drain imbalance: %v", err)
		}
		o.set("gpu.drain_imbalance", imb)
	}
	o.set("obsv.trace_overhead", ratio(median(t.rounds), median(u.rounds))-1)
	o.note("traced window: rounds %d, frames %d; untraced rounds %d", len(t.rounds), t.frames, len(u.rounds))
}

func sumStageNanos(rigs []*rig) map[string]int64 {
	out := map[string]int64{}
	for _, r := range rigs {
		for k, v := range r.g.StageNanos() {
			out[k] += v
		}
	}
	return out
}

// drainImbalance reads the tracer's Chrome JSON export and, for every
// sampled draw on the tile-parallel path, divides the longest
// per-worker drain span by the mean; it returns the median over draws.
func drainImbalance(tr *obsv.Tracer) (float64, error) {
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		return 0, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Pid  int32    `json:"pid"`
			TS   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return 0, err
	}
	type span struct{ ts, end float64 }
	draws := map[int32][]span{}
	drains := map[int32][]span{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur == nil {
			continue
		}
		switch e.Name {
		case "draw":
			draws[e.Pid] = append(draws[e.Pid], span{e.TS, e.TS + *e.Dur})
		case "drain":
			drains[e.Pid] = append(drains[e.Pid], span{e.TS, e.TS + *e.Dur})
		}
	}
	var ratios []float64
	for pid, ds := range draws {
		// Draws of one process are sequential, so each drain falls in
		// exactly one draw's interval.
		for _, d := range ds {
			var max, sum float64
			k := 0
			for _, w := range drains[pid] {
				if w.ts >= d.ts && w.end <= d.end {
					dur := w.end - w.ts
					sum += dur
					if dur > max {
						max = dur
					}
					k++
				}
			}
			if k > 1 && sum > 0 {
				ratios = append(ratios, max/(sum/float64(k)))
			}
		}
	}
	return median(ratios), nil
}

// liveHeapMB is HeapInuse after a forced collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
