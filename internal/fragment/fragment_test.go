package fragment

import (
	"gpuchar/internal/metrics"
	"testing"

	"gpuchar/internal/geom"
	"gpuchar/internal/gmath"
	"gpuchar/internal/rast"
	"gpuchar/internal/shader"
)

// setupTri builds a large screen triangle whose varying 1 is a color and
// varying 0 is a texcoord, mirroring the BasicTransformVS conventions.
func setupTri(t *testing.T) *rast.SetupTri {
	t.Helper()
	tr := &geom.Triangle{}
	pts := [3][2]float32{{0, 0}, {64, 0}, {0, 64}}
	for i, p := range pts {
		tr.V[i] = geom.ScreenVertex{X: p[0], Y: p[1], Z: 0.5, InvW: 1}
		tr.V[i].Var[0] = gmath.V4(p[0]/64, p[1]/64, 0, 1) // texcoord
		tr.V[i].Var[1] = gmath.V4(1, 0.5, 0.25, 1)        // flat color
	}
	s := &rast.SetupTri{}
	if !rast.SetupInto(tr, s) {
		t.Fatal("setup failed")
	}
	return s
}

func quadOf(s *rast.SetupTri, x, y int) *rast.Quad {
	return &rast.Quad{X: x, Y: y, Mask: 0xF, Tri: s,
		Z: [4]float32{0.5, 0.5, 0.5, 0.5}}
}

func TestShadeQuadPassThroughColor(t *testing.T) {
	m := shader.NewMachine()
	st := NewStage(m)
	fs := shader.MustAssemble("flat", shader.FragmentProgram, "mov o0, v2")
	s := setupTri(t)
	live, colors := st.ShadeQuad(quadOf(s, 4, 4), 0xF, fs)
	if live != 0xF {
		t.Fatalf("live = %04b", live)
	}
	want := gmath.V4(1, 0.5, 0.25, 1)
	for lane := 0; lane < 4; lane++ {
		c := colors[lane]
		if absf(c.X-want.X) > 0.01 || absf(c.Y-want.Y) > 0.01 {
			t.Errorf("lane %d color = %v, want ~%v", lane, c, want)
		}
	}
	stats := st.Stats()
	if stats.QuadsShaded != 1 || stats.FragmentsShaded != 4 || stats.QuadsOut != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestVaryingInterpolationAcrossQuad(t *testing.T) {
	m := shader.NewMachine()
	st := NewStage(m)
	fs := shader.MustAssemble("uv", shader.FragmentProgram, "mov o0, v1")
	s := setupTri(t)
	_, colors := st.ShadeQuad(quadOf(s, 16, 16), 0xF, fs)
	// texcoord.x at pixel 16.5 of 64 -> ~0.258.
	if absf(colors[0].X-16.5/64) > 0.01 {
		t.Errorf("u at x=16 = %v, want ~%v", colors[0].X, 16.5/64)
	}
	// Lane 1 is one pixel right: u increases by 1/64.
	if absf(colors[1].X-colors[0].X-1.0/64) > 0.005 {
		t.Errorf("du across lanes = %v, want ~%v", colors[1].X-colors[0].X, 1.0/64)
	}
}

func TestWindowPositionInput(t *testing.T) {
	m := shader.NewMachine()
	st := NewStage(m)
	fs := shader.MustAssemble("pos", shader.FragmentProgram, "mov o0, v0")
	s := setupTri(t)
	_, colors := st.ShadeQuad(quadOf(s, 8, 10), 0xF, fs)
	if colors[0].X != 8.5 || colors[0].Y != 10.5 {
		t.Errorf("window pos = %v, want (8.5,10.5)", colors[0])
	}
	if colors[3].X != 9.5 || colors[3].Y != 11.5 {
		t.Errorf("lane 3 pos = %v", colors[3])
	}
}

func TestKillAllFragments(t *testing.T) {
	m := shader.NewMachine()
	m.Consts[0] = gmath.V4(-1, -1, -1, -1)
	st := NewStage(m)
	fs := shader.MustAssemble("killall", shader.FragmentProgram, `
		kil c0
		mov o0, v1
	`)
	s := setupTri(t)
	live, colors := st.ShadeQuad(quadOf(s, 4, 4), 0xF, fs)
	if live != 0 || colors != nil {
		t.Errorf("live = %04b, colors = %v", live, colors)
	}
	stats := st.Stats()
	if stats.QuadsKilledAlpha != 1 || stats.FragmentsKilled != 4 || stats.QuadsOut != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestPartialMaskCounting(t *testing.T) {
	m := shader.NewMachine()
	st := NewStage(m)
	fs := shader.MustAssemble("flat", shader.FragmentProgram, "mov o0, v2")
	s := setupTri(t)
	live, _ := st.ShadeQuad(quadOf(s, 4, 4), 0b0110, fs)
	if live != 0b0110 {
		t.Errorf("live = %04b", live)
	}
	stats := st.Stats()
	if stats.FragmentsShaded != 2 || stats.CompleteOut != 0 {
		t.Errorf("stats = %+v", stats)
	}
	// Interpreter invocations also reflect two active lanes.
	if m.Stats().Invocations != 2 {
		t.Errorf("invocations = %d", m.Stats().Invocations)
	}
}

func TestEmptyMaskNoShading(t *testing.T) {
	m := shader.NewMachine()
	st := NewStage(m)
	fs := shader.MustAssemble("flat", shader.FragmentProgram, "mov o0, v2")
	s := setupTri(t)
	live, colors := st.ShadeQuad(quadOf(s, 4, 4), 0, fs)
	if live != 0 || colors != nil {
		t.Error("empty mask should shade nothing")
	}
	if st.Stats().QuadsShaded != 0 {
		t.Error("empty mask counted as shaded")
	}
	if st.Stats().QuadsIn != 1 {
		t.Error("QuadsIn must count arrivals")
	}
}

func TestStatsRegister(t *testing.T) {
	a := Stats{QuadsIn: 1, QuadsShaded: 2, QuadsKilledAlpha: 3,
		FragmentsShaded: 4, FragmentsKilled: 5, QuadsOut: 6, CompleteOut: 7}
	r := metrics.NewRegistry()
	a.Register(r, "frag")
	s := r.Snapshot()
	s.Merge(s)
	if r.Load(s) != 0 {
		t.Fatal("snapshot did not round-trip through the registry")
	}
	if a.QuadsIn != 2 || a.CompleteOut != 14 {
		t.Errorf("merged stats = %+v", a)
	}
}

func absf(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}
