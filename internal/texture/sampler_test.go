package texture

import (
	"testing"

	"gpuchar/internal/gmath"
	"gpuchar/internal/mem"
)

// quadCoords builds the four lane coordinates of a screen-aligned quad
// whose texture footprint per pixel is (du, dv) horizontally and
// vertically isotropicly scaled by (dudx, dvdy).
func quadCoords(s, t, dudx, dvdy float32) [4]gmath.Vec4 {
	return [4]gmath.Vec4{
		{X: s, Y: t, W: 1},
		{X: s + dudx, Y: t, W: 1},
		{X: s, Y: t + dvdy, W: 1},
		{X: s + dudx, Y: t + dvdy, W: 1},
	}
}

func newTestUnit(filter FilterMode, maxAniso int) (*Unit, *mem.Controller) {
	m := mem.NewController()
	u := NewUnit(m)
	tex := MustNew("t", FormatDXT1, 256, 256, Checker(16,
		RGBA{255, 255, 255, 255}, RGBA{0, 0, 0, 255}))
	tex.BaseAddr = 0x100000
	u.Bind(0, tex, SamplerState{Filter: filter, MaxAniso: maxAniso})
	return u, m
}

func TestBilinearSampleCountIsotropic(t *testing.T) {
	u, _ := newTestUnit(FilterBilinear, 0)
	// Footprint of exactly one texel per pixel -> lod 0, one bilinear
	// sample per request.
	coords := quadCoords(0.5, 0.5, 1.0/256, 1.0/256)
	u.SampleQuad(0, &coords, 0, false)
	s := u.Stats()
	if s.Requests != 4 {
		t.Errorf("requests = %d, want 4", s.Requests)
	}
	if s.BilinearSamples != 4 {
		t.Errorf("bilinear = %d, want 4 (one per lane)", s.BilinearSamples)
	}
}

func TestTrilinearDoublesSamples(t *testing.T) {
	u, _ := newTestUnit(FilterTrilinear, 0)
	coords := quadCoords(0.5, 0.5, 1.5/256, 1.5/256)
	u.SampleQuad(0, &coords, 0, false)
	s := u.Stats()
	if s.BilinearSamples != 8 {
		t.Errorf("trilinear bilinear samples = %d, want 8", s.BilinearSamples)
	}
}

func TestAnisoProbeCount(t *testing.T) {
	u, _ := newTestUnit(FilterAniso, 16)
	// Footprint 4x wider than tall: expect 4 probes x 2 (trilinear)
	// bilinear samples per request.
	coords := quadCoords(0.5, 0.5, 4.0/256, 1.0/256)
	u.SampleQuad(0, &coords, 0, false)
	s := u.Stats()
	if got := s.AvgBilinearPerRequest(); got != 8 {
		t.Errorf("aniso 4:1 bilinear/request = %v, want 8", got)
	}
}

func TestAnisoClampedToMax(t *testing.T) {
	u, _ := newTestUnit(FilterAniso, 4)
	// 16:1 footprint but clamped to 4 probes.
	coords := quadCoords(0.5, 0.5, 16.0/256, 1.0/256)
	u.SampleQuad(0, &coords, 0, false)
	if got := u.Stats().AvgBilinearPerRequest(); got != 8 {
		t.Errorf("clamped aniso = %v bilinear/request, want 8", got)
	}
}

func TestAnisoIsotropicFootprintSingleProbe(t *testing.T) {
	u, _ := newTestUnit(FilterAniso, 16)
	coords := quadCoords(0.5, 0.5, 1.0/256, 1.0/256)
	u.SampleQuad(0, &coords, 0, false)
	// Isotropic: 1 probe, trilinear -> 2 bilinears.
	if got := u.Stats().AvgBilinearPerRequest(); got != 2 {
		t.Errorf("isotropic aniso = %v, want 2", got)
	}
}

func TestSampleValueCheckerboard(t *testing.T) {
	m := mem.NewController()
	u := NewUnit(m)
	tex := MustNew("t", FormatRGBA8, 64, 64, Checker(32,
		RGBA{255, 255, 255, 255}, RGBA{0, 0, 0, 255}))
	u.Bind(0, tex, SamplerState{Filter: FilterBilinear})
	// Sample well inside the white cell.
	coords := quadCoords(0.2, 0.2, 1.0/64, 1.0/64)
	out := u.SampleQuad(0, &coords, 0, false)
	if out[0].X < 0.9 {
		t.Errorf("white cell sample = %v", out[0])
	}
	// And inside the black cell.
	coords2 := quadCoords(0.7, 0.2, 1.0/64, 1.0/64)
	out2 := u.SampleQuad(0, &coords2, 0, false)
	if out2[0].X > 0.1 {
		t.Errorf("black cell sample = %v", out2[0])
	}
}

func TestProjectiveDivide(t *testing.T) {
	m := mem.NewController()
	u := NewUnit(m)
	tex := MustNew("t", FormatRGBA8, 64, 64, func(x, y, lv int) RGBA {
		if x < 32 {
			return RGBA{255, 0, 0, 255}
		}
		return RGBA{0, 255, 0, 255}
	})
	u.Bind(0, tex, SamplerState{Filter: FilterBilinear})
	// s=1.5 with q=2 -> s/q=0.75, right half (green).
	coords := [4]gmath.Vec4{
		{X: 1.5, Y: 0.5, W: 2},
		{X: 1.5 + 2.0/64, Y: 0.5, W: 2},
		{X: 1.5, Y: 0.5 + 2.0/64, W: 2},
		{X: 1.5 + 2.0/64, Y: 0.5 + 2.0/64, W: 2},
	}
	out := u.SampleQuad(0, &coords, 0, true)
	if out[0].Y < 0.9 || out[0].X > 0.1 {
		t.Errorf("projective sample = %v, want green", out[0])
	}
}

func TestCacheTrafficFlowsToMemory(t *testing.T) {
	u, m := newTestUnit(FilterBilinear, 0)
	// Sweep the whole texture so the caches must miss repeatedly.
	for i := 0; i < 64; i++ {
		s := float32(i) / 64
		for j := 0; j < 64; j++ {
			tc := float32(j) / 64
			coords := quadCoords(s, tc, 1.0/256, 1.0/256)
			u.SampleQuad(0, &coords, 0, false)
		}
	}
	if u.L0Stats().Accesses() == 0 {
		t.Fatal("L0 never accessed")
	}
	if u.L1Stats().Accesses() == 0 {
		t.Fatal("L1 never accessed (all L0 hits?)")
	}
	tex := m.ClientTraffic(mem.ClientTexture)
	if tex.ReadBytes == 0 {
		t.Fatal("no texture memory traffic")
	}
	// Compression + caches: traffic must be far below the naive 16
	// bytes per bilinear sample the paper quotes for uncached data.
	naive := u.Stats().BilinearSamples * 16
	if tex.ReadBytes >= naive {
		t.Errorf("traffic %d >= naive %d; caches ineffective", tex.ReadBytes, naive)
	}
}

func TestL0HitRateHighForCoherentAccess(t *testing.T) {
	u, _ := newTestUnit(FilterBilinear, 0)
	// Walk texel by texel, like adjacent fragments of a big triangle:
	// consecutive fetches share cache lines heavily.
	for i := 0; i < 128; i++ {
		s := 0.25 + float32(i)/1024
		coords := quadCoords(s, 0.25, 1.0/256, 1.0/256)
		u.SampleQuad(0, &coords, 0, false)
	}
	hr := u.L0Stats().HitRate()
	if hr < 0.9 {
		t.Errorf("coherent L0 hit rate = %v, want > 0.9", hr)
	}
}

func TestUnboundUnitReturnsBlack(t *testing.T) {
	u := NewUnit(nil)
	coords := quadCoords(0.5, 0.5, 1.0/64, 1.0/64)
	out := u.SampleQuad(3, &coords, 0, false)
	if out[0] != (gmath.Vec4{}) {
		t.Errorf("unbound sample = %v", out[0])
	}
	if u.Stats().Requests != 0 {
		t.Error("unbound sample should not count requests")
	}
}

func TestResetStats(t *testing.T) {
	u, _ := newTestUnit(FilterBilinear, 0)
	coords := quadCoords(0.5, 0.5, 1.0/256, 1.0/256)
	u.SampleQuad(0, &coords, 0, false)
	u.ResetStats()
	if u.Stats().Requests != 0 || u.L0Stats().Accesses() != 0 {
		t.Error("ResetStats incomplete")
	}
}

func TestLODBias(t *testing.T) {
	u, _ := newTestUnit(FilterNearest, 0)
	// 1:1 footprint at lod 0, bias pushes to a higher level. The texture
	// has 9 levels (256 -> 1), so bias 8 lands on the 1x1 level; just
	// verify sampling doesn't crash and stays in range.
	coords := quadCoords(0.5, 0.5, 1.0/256, 1.0/256)
	u.SampleQuad(0, &coords, 100, false)
	if u.Stats().Requests != 4 {
		t.Error("biased sample did not complete")
	}
}

// sampleSink keeps benchmark results live.
var sampleSink [4]gmath.Vec4

// BenchmarkSampleQuad measures SampleQuad per filter mode over a
// raster-order walk of 2x2 quads across a 256x256 procedural DXT1
// texture with the Table XIV caches, and reports the cost per bilinear
// sample, the unit of Table XIII. The footprint is 1.3 texels per pixel
// (5.2 x 1.3 for the anisotropic case, five probes).
func BenchmarkSampleQuad(b *testing.B) {
	modes := []struct {
		name   string
		filter FilterMode
		du     float32 // texels per pixel along x
	}{
		{"nearest", FilterNearest, 1.3},
		{"bilinear", FilterBilinear, 1.3},
		{"trilinear", FilterTrilinear, 1.3},
		{"aniso16", FilterAniso, 5.2},
	}
	const size, quadsPerRow = 256, 32
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			u := NewUnit(mem.NewController())
			tex := MustNew("bench", FormatDXT1, size, size, Noise(7))
			tex.BaseAddr = 0x100000
			u.Bind(0, tex, SamplerState{Filter: m.filter, MaxAniso: 16})
			walk := make([][4]gmath.Vec4, quadsPerRow*quadsPerRow)
			for i := range walk {
				px, py := float32(2*(i%quadsPerRow)), float32(2*(i/quadsPerRow))
				du, dv := m.du/size, float32(1.3)/size
				walk[i] = quadCoords(0.1+px*du, 0.1+py*dv, du, dv)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sampleSink = u.SampleQuad(0, &walk[i%len(walk)], 0, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(u.Stats().BilinearSamples), "ns/bilinear")
		})
	}
}
