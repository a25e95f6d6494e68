package core

import (
	"bytes"
	"testing"

	"gpuchar/internal/cache"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gpu"
	"gpuchar/internal/hwconfig"
	"gpuchar/internal/mem"
	"gpuchar/internal/workloads"
)

// renderUnder runs a mixed API+micro experiment set under a hardware
// variant (nil = the seed default path) and returns the rendered tables
// plus the metrics JSON export.
func renderUnder(t *testing.T, hw *hwconfig.Variant) (string, string) {
	t.Helper()
	ctx := NewContext()
	ctx.APIFrames = 10
	ctx.SimFrames = 1
	ctx.W, ctx.H = 96, 64
	ctx.HW = hw
	results, err := RunExperiments(ctx, []string{"table2", "table9", "table14"})
	if err != nil {
		t.Fatal(err)
	}
	var tables bytes.Buffer
	for _, res := range results {
		for _, tab := range res.Tables {
			tab.Render(&tables)
		}
	}
	var doc bytes.Buffer
	if err := ctx.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	return tables.String(), doc.String()
}

// TestVariantR520ByteIdentical pins the acceptance criterion: running
// under the named r520 variant is byte-identical to the seed's
// compiled-in default — in the rendered tables and in every exported
// counter.
func TestVariantR520ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	defTables, defDoc := renderUnder(t, nil)
	r520 := hwconfig.MustByName("r520")
	varTables, varDoc := renderUnder(t, &r520)
	if defTables != varTables {
		t.Error("r520 variant tables differ from the default path")
	}
	if defDoc != varDoc {
		t.Error("r520 variant metrics export differs from the default path")
	}
	if defTables == "" {
		t.Error("no tables rendered")
	}
}

// TestVariantCachesOffAblation pins the caches-as-observers property
// behind the caches-off variant: minimum-geometry caches collapse the
// hit rates and move the traffic counters, but the rendered framebuffer
// is byte-identical — caches shape stats, never pixels.
func TestVariantCachesOffAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	const demo, frames, w, h = "Quake4/demo4", 1, 128, 96
	render := func(v hwconfig.Variant) ([]byte, *MicroResult) {
		prof := workloads.ByName(demo)
		cfg := v.GPUConfig(w, h)
		g := gpu.New(cfg)
		dev := gfxapi.NewDevice(prof.API, g)
		wl := workloads.New(prof, dev, w, h)
		if err := wl.Run(frames); err != nil {
			t.Fatal(err)
		}
		return g.Target().Image().Pix, MicroResultFromGPU(prof, g, cfg)
	}
	onPix, on := render(hwconfig.Default())
	offPix, off := render(hwconfig.MustByName("caches-off"))

	if !bytes.Equal(onPix, offPix) {
		t.Fatal("caches-off changed the framebuffer")
	}
	zOn, l0On, _, cOn := on.CacheHitRates()
	zOff, l0Off, _, cOff := off.CacheHitRates()
	if zOff >= zOn || l0Off >= l0On || cOff >= cOn {
		t.Errorf("minimum caches did not lower hit rates: z %.3f->%.3f l0 %.3f->%.3f color %.3f->%.3f",
			zOn, zOff, l0On, l0Off, cOn, cOff)
	}
	mbOn, _, _, _ := on.MemoryProfile()
	mbOff, _, _, _ := off.MemoryProfile()
	if mbOff <= mbOn {
		t.Errorf("minimum caches did not raise memory traffic: %.2f -> %.2f MB/frame", mbOn, mbOff)
	}

	// The 1-way, 1-set texture L0 is where footprint-granular sampling
	// must fall back to per-texel cache accesses (a line can evict the
	// line accessed just before it), so its counters are pinned exactly
	// to the values the per-texel sampler produced.
	type texCounters struct {
		L0, L1       cache.Stats
		TexReadBytes int64
	}
	got := texCounters{off.Agg.TexL0, off.Agg.TexL1, off.Agg.Mem[mem.ClientTexture].ReadBytes}
	want := texCounters{
		L0:           cache.Stats{Hits: 2527841, Misses: 2387935, FillBytes: 152827840},
		L1:           cache.Stats{Hits: 816107, Misses: 1571828, FillBytes: 100596992},
		TexReadBytes: 100596992,
	}
	if got != want {
		t.Errorf("caches-off texture counters = %+v, want %+v", got, want)
	}
}
