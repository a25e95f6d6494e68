package core

import (
	"testing"

	"gpuchar/internal/gpu"
	"gpuchar/internal/mem"
	"gpuchar/internal/workloads"
)

// runSmall simulates one frame at reduced resolution with a config tweak.
func runSmall(t *testing.T, demo string, tweak func(*gpu.Config)) *MicroResult {
	t.Helper()
	cfg := gpu.R520Config(256, 192)
	if tweak != nil {
		tweak(&cfg)
	}
	r, err := RenderMicro(workloads.ByName(demo), 1, cfg, MicroHooks{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The paper (§III.C): HZ removes a large share of z-killed fragments
// before they consume GDDR bandwidth. Disabling it must push those kills
// into the fine z test and raise z & stencil traffic.
func TestAblationHZ(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	on := runSmall(t, "Doom3/trdemo2", nil)
	off := runSmall(t, "Doom3/trdemo2", func(c *gpu.Config) { c.HZ = false })

	hzOn, zsOn, _, _, _ := on.QuadKillPct()
	hzOff, zsOff, _, _, _ := off.QuadKillPct()
	if hzOff != 0 {
		t.Errorf("HZ kills with HZ off = %v", hzOff)
	}
	if hzOn < 20 {
		t.Errorf("HZ kills only %v%% of quads", hzOn)
	}
	if zsOff < zsOn+hzOn*0.9 {
		t.Errorf("fine z did not absorb HZ kills: on=%v+%v off=%v", hzOn, zsOn, zsOff)
	}
	zOnB := on.Agg.Mem[mem.ClientZStencil].Total()
	zOffB := off.Agg.Mem[mem.ClientZStencil].Total()
	if zOffB <= zOnB {
		t.Errorf("z traffic without HZ (%d) not above with HZ (%d)", zOffB, zOnB)
	}
}

// The paper (§III.E): fast clear + z compression roughly halve the z &
// stencil bandwidth.
func TestAblationZCompression(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	on := runSmall(t, "Quake4/demo4", nil)
	off := runSmall(t, "Quake4/demo4", func(c *gpu.Config) {
		c.ZCompression = false
		c.FastClear = false
	})
	zOn := on.Agg.Mem[mem.ClientZStencil].Total()
	zOff := off.Agg.Mem[mem.ClientZStencil].Total()
	ratio := float64(zOff) / float64(zOn)
	if ratio < 1.7 || ratio > 3.0 {
		t.Errorf("z compression saving ratio = %.2f, want ~2x", ratio)
	}
}

// Color compression only pays off when frame regions stay one color; the
// noise-textured workloads should see little saving, like UT2004 in the
// paper.
func TestAblationColorCompression(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	on := runSmall(t, "UT2004/Primeval", nil)
	off := runSmall(t, "UT2004/Primeval", func(c *gpu.Config) {
		c.ColorCompression = false
	})
	cOn := on.Agg.Mem[mem.ClientColor].Total()
	cOff := off.Agg.Mem[mem.ClientColor].Total()
	ratio := float64(cOff) / float64(cOn)
	if ratio < 1.0 || ratio > 1.6 {
		t.Errorf("UT2004 color compression ratio = %.2f, want ~1 (fails on noise)", ratio)
	}
}

// Vertex cache size: the adjacent-triangle bound of ~2/3 is reached by a
// 16-entry FIFO; a 4-entry cache falls visibly short, a 64-entry one
// gains little — the knee the paper's Figure 5 discussion rests on.
func TestAblationVertexCacheSize(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	rates := map[int]float64{}
	for _, size := range []int{4, 16, 64} {
		r := runSmall(t, "UT2004/Primeval", func(c *gpu.Config) {
			c.VertexCacheSize = size
		})
		rates[size] = r.VertexCacheHitRate()
	}
	if rates[4] >= rates[16] {
		t.Errorf("4-entry (%v) should trail 16-entry (%v)", rates[4], rates[16])
	}
	if rates[16] < 0.60 {
		t.Errorf("16-entry rate = %v, want >= 0.60", rates[16])
	}
	if rates[64]-rates[16] > 0.12 {
		t.Errorf("64-entry gains too much: %v vs %v", rates[64], rates[16])
	}
}

// Resolution scaling: per-pixel ratios (overdraw, kill percentages) stay
// roughly stable across resolutions, which justifies the reduced-frame
// test configuration.
func TestResolutionInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	small := runSmall(t, "UT2004/Primeval", nil)
	big, err := RenderMicro(workloads.ByName("UT2004/Primeval"), 1,
		gpu.R520Config(512, 384), MicroHooks{})
	if err != nil {
		t.Fatal(err)
	}
	odS, _, _, _ := small.Overdraw()
	odB, _, _, _ := big.Overdraw()
	if diff := odS/odB - 1; diff > 0.4 || diff < -0.4 {
		t.Errorf("overdraw varies grossly with resolution: %v vs %v", odS, odB)
	}
}
