package rast

import (
	"testing"

	"gpuchar/internal/geom"
	"gpuchar/internal/gmath"
)

// tri builds a screen triangle with constant InvW=1 and one varying.
func tri(x0, y0, x1, y1, x2, y2 float32) *geom.Triangle {
	t := &geom.Triangle{CountsAsTraversed: true}
	coords := [3][2]float32{{x0, y0}, {x1, y1}, {x2, y2}}
	for i, c := range coords {
		t.V[i] = geom.ScreenVertex{X: c[0], Y: c[1], Z: 0.5, InvW: 1}
		t.V[i].Var[0] = gmath.V4(c[0], c[1], 0, 1) // varying = position
	}
	return t
}

// setup is SetupInto into fresh storage, nil for a rejected triangle.
func setup(tri *geom.Triangle) *SetupTri {
	s := &SetupTri{}
	if !SetupInto(tri, s) {
		return nil
	}
	return s
}

// emitFunc adapts a function to QuadEmitter.
type emitFunc func(*Quad)

func (f emitFunc) EmitQuad(q *Quad) { f(q) }

func collect(r *Rasterizer, s *SetupTri, cfg Config) []Quad {
	var quads []Quad
	r.RasterizeTo(s, cfg, emitFunc(func(q *Quad) {
		quads = append(quads, *q)
	}))
	return quads
}

var cfg64 = Config{Width: 64, Height: 64}

func TestSetupRejectsBackfacing(t *testing.T) {
	// Clockwise triangle: negative area.
	if s := setup(tri(0, 0, 0, 10, 10, 0)); s != nil {
		t.Error("backfacing triangle should not set up")
	}
	// Degenerate.
	if s := setup(tri(0, 0, 5, 5, 10, 10)); s != nil {
		t.Error("degenerate triangle should not set up")
	}
}

func TestFullSquareCoverage(t *testing.T) {
	// Two triangles covering exactly a 16x16 square: fragment count
	// must equal 256 with no double counting on the shared diagonal.
	r := New()
	t1 := setup(tri(0, 0, 16, 0, 16, 16))
	t2 := setup(tri(0, 0, 16, 16, 0, 16))
	if t1 == nil || t2 == nil {
		t.Fatal("setup failed")
	}
	total := 0
	for _, s := range []*SetupTri{t1, t2} {
		for _, q := range collect(r, s, cfg64) {
			total += q.FragCount()
		}
	}
	if total != 256 {
		t.Errorf("two triangles over 16x16 = %d fragments, want 256", total)
	}
}

func TestSharedEdgeNoDoubleCount(t *testing.T) {
	// Four triangles sharing a central vertex, covering a square fan.
	// Total coverage must still be exact.
	r := New()
	quadsArea := 0
	pts := [][6]float32{
		{0, 0, 32, 0, 16, 16},
		{32, 0, 32, 32, 16, 16},
		{32, 32, 0, 32, 16, 16},
		{0, 32, 0, 0, 16, 16},
	}
	for _, p := range pts {
		s := setup(tri(p[0], p[1], p[2], p[3], p[4], p[5]))
		if s == nil {
			t.Fatalf("setup failed for %v", p)
		}
		for _, q := range collect(r, s, cfg64) {
			quadsArea += q.FragCount()
		}
	}
	if quadsArea != 32*32 {
		t.Errorf("fan coverage = %d, want 1024", quadsArea)
	}
}

func TestQuadMaskLayout(t *testing.T) {
	// A tiny triangle covering only pixel (2,2) yields one quad at
	// (2,2) with mask bit 0.
	r := New()
	s := setup(tri(2, 2, 3.2, 2, 2, 3.2))
	quads := collect(r, s, cfg64)
	if len(quads) != 1 {
		t.Fatalf("quads = %d", len(quads))
	}
	q := quads[0]
	if q.X != 2 || q.Y != 2 {
		t.Errorf("quad at (%d,%d)", q.X, q.Y)
	}
	if q.Mask != 1 {
		t.Errorf("mask = %04b, want 0001", q.Mask)
	}
	if q.FragCount() != 1 || q.Complete() {
		t.Error("FragCount/Complete wrong")
	}
	if q.PixelX(3) != 3 || q.PixelY(3) != 3 {
		t.Errorf("lane 3 pixel = (%d,%d)", q.PixelX(3), q.PixelY(3))
	}
}

func TestZInterpolation(t *testing.T) {
	// Triangle with z varying across x: z=0 at x=0, z=1 at x=32.
	tr := &geom.Triangle{}
	tr.V[0] = geom.ScreenVertex{X: 0, Y: 0, Z: 0, InvW: 1}
	tr.V[1] = geom.ScreenVertex{X: 32, Y: 0, Z: 1, InvW: 1}
	tr.V[2] = geom.ScreenVertex{X: 0, Y: 32, Z: 0, InvW: 1}
	s := setup(tr)
	if s == nil {
		t.Fatal("setup failed")
	}
	r := New()
	for _, q := range collect(r, s, cfg64) {
		for lane := 0; lane < 4; lane++ {
			if q.Mask&(1<<lane) == 0 {
				continue
			}
			wantZ := (float32(q.PixelX(lane)) + 0.5) / 32
			if diff := q.Z[lane] - wantZ; diff > 0.001 || diff < -0.001 {
				t.Fatalf("z at x=%d: %v, want %v", q.PixelX(lane), q.Z[lane], wantZ)
			}
		}
	}
}

func TestVaryingPerspectiveCorrection(t *testing.T) {
	// A triangle with InvW varying: perspective-correct interpolation of
	// a varying equal to the original (pre-divide) value must recover it.
	tr := &geom.Triangle{}
	// v0 at w=1, v1 at w=4 (InvW .25), varying holds u: 0 at v0, 1 at v1.
	tr.V[0] = geom.ScreenVertex{X: 0, Y: 0, Z: 0, InvW: 1}
	tr.V[0].Var[0] = gmath.V4(0, 0, 0, 0).Scale(tr.V[0].InvW)
	tr.V[1] = geom.ScreenVertex{X: 32, Y: 0, Z: 0, InvW: 0.25}
	tr.V[1].Var[0] = gmath.V4(1, 0, 0, 0).Scale(tr.V[1].InvW)
	tr.V[2] = geom.ScreenVertex{X: 0, Y: 32, Z: 0, InvW: 1}
	tr.V[2].Var[0] = gmath.V4(0, 0, 0, 0).Scale(tr.V[2].InvW)
	s := setup(tr)
	if s == nil {
		t.Fatal("setup failed")
	}
	// At screen midpoint x=16 on the bottom edge, the perspective-correct
	// u is w-weighted: u = (0.5/4)/(0.5*1/1*... ) — compute directly:
	// invW mid = (1+0.25)/2 = 0.625; u*invW mid = (0+0.25)/2 = 0.125;
	// u = 0.125/0.625 = 0.2.
	u := s.Varying(0, 15, 0) // pixel center 15.5 ~ half of 31-ish
	if u.X < 0.15 || u.X > 0.25 {
		t.Errorf("perspective-corrected u = %v, want ~0.2", u.X)
	}
}

func TestScissor(t *testing.T) {
	r := New()
	s := setup(tri(0, 0, 32, 0, 0, 32))
	cfg := cfg64
	cfg.ScissorX0, cfg.ScissorY0, cfg.ScissorX1, cfg.ScissorY1 = 0, 0, 8, 8
	for _, q := range collect(r, s, cfg) {
		for lane := 0; lane < 4; lane++ {
			if q.Mask&(1<<lane) == 0 {
				continue
			}
			if q.PixelX(lane) >= 8 || q.PixelY(lane) >= 8 {
				t.Fatalf("fragment (%d,%d) outside scissor",
					q.PixelX(lane), q.PixelY(lane))
			}
		}
	}
}

func TestViewportClamp(t *testing.T) {
	// A triangle extending past the viewport emits no out-of-range
	// fragments.
	r := New()
	s := setup(tri(-20, -20, 100, -20, -20, 100))
	for _, q := range collect(r, s, Config{Width: 32, Height: 32}) {
		for lane := 0; lane < 4; lane++ {
			if q.Mask&(1<<lane) == 0 {
				continue
			}
			x, y := q.PixelX(lane), q.PixelY(lane)
			if x < 0 || x >= 32 || y < 0 || y >= 32 {
				t.Fatalf("fragment (%d,%d) outside viewport", x, y)
			}
		}
	}
}

func TestStatsAccumulation(t *testing.T) {
	r := New()
	s := setup(tri(0, 0, 32, 0, 0, 32))
	quads := collect(r, s, cfg64)
	st := r.Stats()
	if st.TrianglesSetup != 1 {
		t.Errorf("setup count = %d", st.TrianglesSetup)
	}
	if st.QuadsEmitted != int64(len(quads)) {
		t.Errorf("quads = %d vs %d", st.QuadsEmitted, len(quads))
	}
	var frag, complete int64
	for _, q := range quads {
		frag += int64(q.FragCount())
		if q.Complete() {
			complete++
		}
	}
	if st.Fragments != frag || st.CompleteQuads != complete {
		t.Errorf("stats = %+v, want frag=%d complete=%d", st, frag, complete)
	}
	// A 32x32 right triangle has ~512 fragments.
	if st.Fragments < 480 || st.Fragments > 544 {
		t.Errorf("fragments = %d, want ~512", st.Fragments)
	}
	r.ResetStats()
	if r.Stats().QuadsEmitted != 0 {
		t.Error("ResetStats failed")
	}
}

func TestQuadEfficiencyLargeTriangle(t *testing.T) {
	// Big triangles have mostly complete quads (paper: >90% in games).
	r := New()
	s := setup(tri(0, 0, 63, 0, 0, 63))
	collect(r, s, cfg64)
	if eff := r.Stats().QuadEfficiency(); eff < 85 {
		t.Errorf("large triangle quad efficiency = %v%%, want > 85%%", eff)
	}
}

func TestQuadEfficiencySmallTriangles(t *testing.T) {
	// Tiny triangles degrade quad efficiency, the effect the paper
	// contrasts with [1].
	r := New()
	for i := 0; i < 16; i++ {
		x := float32(i * 4)
		s := setup(tri(x, 0, x+1.5, 0, x, 1.5))
		collect(r, s, cfg64)
	}
	if eff := r.Stats().QuadEfficiency(); eff > 50 {
		t.Errorf("tiny triangle quad efficiency = %v%%, want < 50%%", eff)
	}
}

func TestEmptyStatsEfficiency(t *testing.T) {
	var s Stats
	if s.QuadEfficiency() != 0 {
		t.Error("idle efficiency should be 0")
	}
}

func TestRasterizeNilSetup(t *testing.T) {
	r := New()
	r.RasterizeTo(nil, cfg64, emitFunc(func(*Quad) { t.Fatal("emitted from nil") }))
	if r.Stats().TrianglesSetup != 0 {
		t.Error("nil setup should not count")
	}
}
