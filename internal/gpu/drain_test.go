package gpu

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gpuchar/internal/geom"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gmath"
	"gpuchar/internal/shader"
	"gpuchar/internal/texture"
)

var errProcBoom = errors.New("procedural texel generator failed")

// TestTileWorkerPanicReachesCaller pins the tile workers' panic
// discipline: a panic inside a worker (here a texture's ProcFunc)
// reaches the caller's goroutine, where recover sees the original value,
// exactly as on the serial pipeline; and every worker goroutine has
// exited once it has.
func TestTileWorkerPanicReachesCaller(t *testing.T) {
	for _, tw := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", tw), func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := R520Config(64, 64)
			cfg.TileWorkers = tw
			g := New(cfg)
			d := gfxapi.NewDevice(gfxapi.OpenGL, g)
			identityMVP(d)
			vb, ib := fullscreenQuadVB(d, 0)
			vs, _ := d.CreateProgram(shader.BasicTransformVS())
			fs, _ := d.CreateProgram(shader.TexturedFS())
			boom := texture.MustNew("boom", texture.FormatRGBA8, 64, 64,
				func(x, y, lv int) texture.RGBA { panic(errProcBoom) })
			d.BindTexture(0, boom, texture.SamplerState{Filter: texture.FilterBilinear})

			rec := func() (rec any) {
				defer func() { rec = recover() }()
				d.Clear(gfxapi.ClearOp{ClearColor: true, ClearDepth: true, Z: 1})
				d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
				d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
				d.EndFrame()
				return nil
			}()
			if rec != errProcBoom {
				t.Fatalf("recovered %v, want %v", rec, errProcBoom)
			}
			// The GPU holds no draw in flight after the panic: a drain
			// point returns without re-raising it.
			g.MetricsSnapshot()

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the panic, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestTileParallelDrainPoints pins that entry points called between
// draws see the previous draw finished: a clear issued while a draw is
// in flight wins over it, and a mid-frame snapshot matches the serial
// pipeline's order-exact counters. Under -race a missing drain is also
// a reported race.
func TestTileParallelDrainPoints(t *testing.T) {
	const w, h = 64, 64
	render := func(tw int) *GPU {
		cfg := R520Config(w, h)
		cfg.TileWorkers = tw
		g := New(cfg)
		d := gfxapi.NewDevice(gfxapi.OpenGL, g)
		identityMVP(d)
		vb, ib := fullscreenQuadVB(d, 0.5)
		vs, _ := d.CreateProgram(shader.BasicTransformVS())
		fs, _ := d.CreateProgram(shader.MustAssemble("flat", shader.FragmentProgram, "mov o0, c8"))
		d.SetConst(8, gmath.V4(1, 0, 0, 1))
		d.Clear(gfxapi.ClearOp{ClearColor: true, ClearDepth: true, Z: 1})
		d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
		d.Clear(gfxapi.ClearOp{ClearColor: true, Color: gmath.V4(0, 0, 1, 1)})
		d.Clear(gfxapi.ClearOp{ClearDepth: true, Z: 1})
		d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
		return g
	}
	serial := render(1).MetricsSnapshot()
	for _, tw := range []int{2, 4} {
		// The second draw is still in flight: a clear must win over it.
		g := render(tw)
		g.Clear(gfxapi.ClearOp{ClearColor: true, Color: gmath.V4(0, 1, 0, 1)})
		for y := 0; y < h; y += 7 {
			for x := 0; x < w; x += 7 {
				if c := g.Target().At(x, y); c != gmath.V4(0, 1, 0, 1) {
					t.Fatalf("workers=%d: pixel (%d,%d) = %v after the clear", tw, x, y, c)
				}
			}
		}
		snap := g.MetricsSnapshot()
		for _, key := range []string{"rop/quads_in", "rop/quads_out", "zst/quads_in", "zst/quads_out", "frag/quads_shaded"} {
			got, _ := snap.Get(key)
			want, _ := serial.Get(key)
			if got != want {
				t.Errorf("workers=%d: %s = %d, serial %d", tw, key, got, want)
			}
		}
	}
}
