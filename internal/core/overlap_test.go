package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gpu"
	"gpuchar/internal/metrics"
	"gpuchar/internal/texture"
	"gpuchar/internal/workloads"
)

// barrierBackend forwards every call to a GPU and takes a metrics
// snapshot after each Execute. A snapshot is a drain point, so every
// draw's tile workers finish before the next draw's front end starts:
// the per-draw barrier the overlapped backend replaced.
type barrierBackend struct{ g *gpu.GPU }

func (b barrierBackend) Execute(dc *gfxapi.DrawCall) {
	b.g.Execute(dc)
	b.g.MetricsSnapshot()
}

func (b barrierBackend) Clear(op gfxapi.ClearOp) { b.g.Clear(op) }
func (b barrierBackend) EndFrame()               { b.g.EndFrame() }

func (b barrierBackend) CreateRenderTarget(rt *gfxapi.RenderTarget) { b.g.CreateRenderTarget(rt) }
func (b barrierBackend) SetRenderTarget(rt *gfxapi.RenderTarget)    { b.g.SetRenderTarget(rt) }

func (b barrierBackend) ResolveRenderTarget(rt *gfxapi.RenderTarget) []texture.RGBA {
	return b.g.ResolveRenderTarget(rt)
}

// overlapRun is everything a render observably produced.
type overlapRun struct {
	frames []metrics.Snapshot // cumulative full snapshot after each frame
	pass   []metrics.Snapshot
	shard  []metrics.Snapshot
	pix    []byte
}

// renderOverlap renders demo at tileWorkers; wrap, when set, puts a
// forwarding backend between the device and the GPU.
func renderOverlap(t *testing.T, demo string, tileWorkers int, wrap func(*gpu.GPU) gfxapi.Backend) overlapRun {
	t.Helper()
	const frames, w, h = 2, 256, 192
	prof := workloads.ByName(demo)
	if prof == nil {
		t.Fatalf("unknown demo %q", demo)
	}
	cfg := gpu.R520Config(w, h)
	cfg.TileWorkers = tileWorkers
	g := gpu.New(cfg)
	var be gfxapi.Backend = g
	if wrap != nil {
		be = wrap(g)
	}
	wl := workloads.New(prof, gfxapi.NewDevice(prof.API, be), w, h)
	var run overlapRun
	wl.OnFrame = func(int) { run.frames = append(run.frames, g.MetricsSnapshot()) }
	if err := wl.Run(frames); err != nil {
		t.Fatal(err)
	}
	run.pass = g.PassSnapshots()
	run.shard = g.ShardSnapshots()
	run.pix = g.Target().Image().Pix
	return run
}

// plainRuns caches the unwrapped renders, which both overlap tests
// compare against: under -race each costs tens of seconds.
var plainRuns = map[string]overlapRun{}

func plainRender(t *testing.T, demo string, tileWorkers int) overlapRun {
	t.Helper()
	key := fmt.Sprintf("%s/%d", demo, tileWorkers)
	run, ok := plainRuns[key]
	if !ok {
		run = renderOverlap(t, demo, tileWorkers, nil)
		plainRuns[key] = run
	}
	return run
}

func sameSnapshots(a, b []metrics.Snapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Counters(), b[i].Counters()) ||
			!reflect.DeepEqual(a[i].Labels(), b[i].Labels()) {
			return false
		}
	}
	return true
}

// TestTileParallelOverlapMatchesBarrier pins the exactness of the
// deferred drain: overlapping each draw's serial front end with the
// previous draw's tile workers changes nothing observable. Every
// counter — including the sharded cache and memory counters, which
// depend on each worker's access order — every per-pass and per-shard
// snapshot and the framebuffer bytes match a render that drains after
// every draw.
func TestTileParallelOverlapMatchesBarrier(t *testing.T) {
	demos := append([]string{"Doom3/trdemo2"}, ModernDemos...)
	for _, demo := range demos {
		for _, tw := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", demo, tw), func(t *testing.T) {
				got := plainRender(t, demo, tw)
				want := renderOverlap(t, demo, tw, func(g *gpu.GPU) gfxapi.Backend { return barrierBackend{g} })
				if len(got.frames) == 0 || len(got.shard) != tw {
					t.Fatalf("%d frame snapshots, %d shard snapshots", len(got.frames), len(got.shard))
				}
				if !sameSnapshots(got.frames, want.frames) {
					t.Error("per-frame snapshots differ from the per-draw-barrier render")
				}
				if !sameSnapshots(got.pass, want.pass) {
					t.Error("pass snapshots differ from the per-draw-barrier render")
				}
				if !sameSnapshots(got.shard, want.shard) {
					t.Error("shard snapshots differ from the per-draw-barrier render")
				}
				if !bytes.Equal(got.pix, want.pix) {
					t.Error("framebuffer differs from the per-draw-barrier render")
				}
			})
		}
	}
}

// copyingBackend hands the GPU a fresh, never reused copy of every draw
// call, as the device did before it refilled one DrawCall per draw. Its
// Execute replaces barrierBackend's, which only forwards the other
// calls.
type copyingBackend struct {
	barrierBackend
	kept []*gfxapi.DrawCall
}

func (b *copyingBackend) Execute(dc *gfxapi.DrawCall) {
	c := new(gfxapi.DrawCall)
	*c = *dc
	b.kept = append(b.kept, c)
	b.g.Execute(c)
}

// TestTileParallelDrawCallReuse proves no backend reads a DrawCall after
// Execute returns, the deferred drain included: a render whose device
// refills one DrawCall per draw matches, in every per-frame snapshot and
// the framebuffer bytes, a render whose GPU gets a fresh copy of each.
func TestTileParallelDrawCallReuse(t *testing.T) {
	demos := append([]string{"Doom3/trdemo2"}, ModernDemos...)
	for _, demo := range demos {
		t.Run(demo, func(t *testing.T) {
			got := plainRender(t, demo, 2)
			want := renderOverlap(t, demo, 2, func(g *gpu.GPU) gfxapi.Backend {
				return &copyingBackend{barrierBackend: barrierBackend{g}}
			})
			if len(got.frames) == 0 {
				t.Fatal("no frame snapshots")
			}
			if !sameSnapshots(got.frames, want.frames) {
				t.Error("per-frame snapshots differ from the fresh-copy render")
			}
			if !bytes.Equal(got.pix, want.pix) {
				t.Error("framebuffer differs from the fresh-copy render")
			}
		})
	}
}
