package geom

import (
	"math"
	"math/rand"
	"testing"

	"gpuchar/internal/gmath"
	"gpuchar/internal/shader"
)

// The scratch-buffer clipper must reproduce the reference clipper
// (clip_reference_test.go) exactly: same outcome, same emitted triangles
// bit for bit, NaN payloads included.

// sameFloat compares two float32s by bit pattern.
func sameFloat(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

func sameVec(a, b gmath.Vec4) bool {
	return sameFloat(a.X, b.X) && sameFloat(a.Y, b.Y) && sameFloat(a.Z, b.Z) && sameFloat(a.W, b.W)
}

func sameScreenVertex(a, b *ScreenVertex) bool {
	if !sameFloat(a.X, b.X) || !sameFloat(a.Y, b.Y) || !sameFloat(a.Z, b.Z) || !sameFloat(a.InvW, b.InvW) {
		return false
	}
	for i := range a.Var {
		if !sameVec(a.Var[i], b.Var[i]) {
			return false
		}
	}
	return true
}

func sameTriangle(a, b *Triangle) bool {
	if a.CountsAsTraversed != b.CountsAsTraversed || a.FrontFacing != b.FrontFacing {
		return false
	}
	for i := range a.V {
		if !sameScreenVertex(&a.V[i], &b.V[i]) {
			return false
		}
	}
	return true
}

func sameShadedVertex(a, b *ShadedVertex) bool {
	if !sameVec(a.ClipPos, b.ClipPos) {
		return false
	}
	for i := range a.Var {
		if !sameVec(a.Var[i], b.Var[i]) {
			return false
		}
	}
	return true
}

// checkClipMatchesReference runs one triangle through both clippers and
// reports any difference.
func checkClipMatchesReference(t *testing.T, p *Pipeline, v *[3]ShadedVertex, cfg Config) {
	t.Helper()
	var want []Triangle
	wantRes := refClipCullEmit(&v[0], &v[1], &v[2], cfg, &want)
	p.out = p.out[:0]
	gotRes := p.clipCullEmit(&v[0], &v[1], &v[2], cfg)
	got := p.out
	if gotRes != wantRes || len(got) != len(want) {
		t.Fatalf("cull %d, clip %v: outcome %d with %d triangles, reference %d with %d",
			cfg.Cull, [3]gmath.Vec4{v[0].ClipPos, v[1].ClipPos, v[2].ClipPos},
			gotRes, len(got), wantRes, len(want))
	}
	for i := range got {
		if !sameTriangle(&got[i], &want[i]) {
			t.Fatalf("cull %d, clip %v: triangle %d = %+v, reference %+v",
				cfg.Cull, [3]gmath.Vec4{v[0].ClipPos, v[1].ClipPos, v[2].ClipPos},
				i, got[i], want[i])
		}
	}
}

// specialCoord returns a coordinate from the classes that stress the
// clipper: ordinary values, values just across a plane, huge magnitudes,
// zero, infinities and NaN.
func specialCoord(r *rand.Rand, w float32) float32 {
	switch r.Intn(12) {
	case 0:
		return float32(math.NaN())
	case 1:
		return float32(math.Inf(1))
	case 2:
		return float32(math.Inf(-1))
	case 3:
		return 1e30
	case 4:
		return -1e30
	case 5:
		return 0
	case 6: // exactly on a plane
		return w
	case 7:
		return -w
	default: // ordinary, often straddling a plane
		return (r.Float32()*4 - 2) * w
	}
}

// randomTriangle draws one triangle. Most vertices have ordinary
// coordinates with a w that is positive, zero or negative; some take a
// special value in one component.
func randomTriangle(r *rand.Rand) [3]ShadedVertex {
	var v [3]ShadedVertex
	for i := range v {
		w := r.Float32()*2 + 0.01
		switch r.Intn(8) {
		case 0:
			w = -w // behind the eye
		case 1:
			w = 0
		}
		pos := gmath.Vec4{
			X: (r.Float32()*4 - 2) * w, Y: (r.Float32()*4 - 2) * w,
			Z: (r.Float32()*4 - 2) * w, W: w,
		}
		if r.Intn(4) == 0 {
			c := specialCoord(r, w)
			switch r.Intn(4) {
			case 0:
				pos.X = c
			case 1:
				pos.Y = c
			case 2:
				pos.Z = c
			default:
				pos.W = c
			}
		}
		v[i].ClipPos = pos
		for k := range v[i].Var {
			v[i].Var[k] = gmath.V4(r.Float32(), r.Float32(), r.Float32(), r.Float32())
		}
	}
	return v
}

func TestClipMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := &Pipeline{}
	for n := 0; n < 20000; n++ {
		v := randomTriangle(r)
		for _, cull := range []CullMode{CullBack, CullFront, CullNone} {
			checkClipMatchesReference(t, p, &v, Config{ViewportW: 256, ViewportH: 192, Cull: cull})
		}
	}
}

// TestClipMatchesReferenceStraddlingEachPlane pins the clipper on
// triangles that cross exactly one frustum plane, for each plane, with
// the outside vertex at ordinary and at extreme distances.
func TestClipMatchesReferenceStraddlingEachPlane(t *testing.T) {
	planes := gmath.FrustumPlanes()
	p := &Pipeline{}
	for pi, pl := range planes {
		// The plane's inward normal (a, b, c) with w offset: a point
		// inside is the origin, a point outside lies along -normal.
		n := gmath.Vec4{X: pl.A, Y: pl.B, Z: pl.C}
		for _, far := range []float32{1.5, 3, 1e6, 1e30} {
			v := [3]ShadedVertex{
				{ClipPos: gmath.Vec4{X: -0.3, Y: -0.3, Z: 0.1, W: 1}},
				{ClipPos: gmath.Vec4{X: 0.3, Y: -0.3, Z: -0.1, W: 1}},
				{ClipPos: gmath.Vec4{X: -n.X * far, Y: -n.Y * far, Z: -n.Z * far, W: 1}},
			}
			for k := range v {
				v[k].Var[0] = gmath.V4(float32(k), float32(pi), far, 1)
			}
			for _, cull := range []CullMode{CullBack, CullFront, CullNone} {
				cfg := Config{ViewportW: 100, ViewportH: 80, Cull: cull}
				checkClipMatchesReference(t, p, &v, cfg)
				// Reversed winding reaches the other cull branches.
				w := [3]ShadedVertex{v[0], v[2], v[1]}
				checkClipMatchesReference(t, p, &w, cfg)
			}
		}
	}
}

// TestClipPolygonBeyondFixedBuffers feeds the clipper a polygon larger
// than its fixed buffers (only non-convex input, which real triangles
// cannot produce, gets there): the result must still match the
// reference, through the append fallback.
func TestClipPolygonBeyondFixedBuffers(t *testing.T) {
	const n = 24
	var in []ShadedVertex
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / n
		// A star: alternate radii make the polygon non-convex, so each
		// plane cuts it into several runs.
		rad := 1.6
		if i%2 == 1 {
			rad = 0.7
		}
		in = append(in, ShadedVertex{ClipPos: gmath.Vec4{
			X: float32(rad * math.Cos(a)), Y: float32(rad * math.Sin(a)),
			Z: float32(0.5 * math.Sin(3*a)), W: 1,
		}, Var: [NumVaryings]gmath.Vec4{{X: float32(i)}}})
	}
	want := refClipPolygon(append([]ShadedVertex(nil), in...))
	if len(want) <= maxClipVerts {
		t.Fatalf("reference produced %d vertices; the case must exceed %d", len(want), maxClipVerts)
	}
	p := &Pipeline{}
	got := p.clipPolygon(in)
	if len(got) != len(want) {
		t.Fatalf("clipped to %d vertices, reference %d", len(got), len(want))
	}
	for i := range got {
		if !sameShadedVertex(&got[i], &want[i]) {
			t.Fatalf("vertex %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// FuzzClipMatchesReference fuzzes raw clip-space positions and the cull
// mode against the reference clipper.
func FuzzClipMatchesReference(f *testing.F) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	f.Add(float32(-0.5), float32(-0.5), float32(0), float32(1),
		float32(3), float32(-0.5), float32(0), float32(1),
		float32(-0.5), float32(0.5), float32(0), float32(1), uint8(0))
	f.Add(float32(0), float32(0), float32(0), float32(-1),
		float32(1), float32(0), float32(0), float32(1),
		float32(0), float32(1), float32(0), float32(0), uint8(2))
	f.Add(nan, float32(0), float32(0), float32(1),
		inf, float32(0), float32(0), float32(1),
		float32(0), float32(1e30), float32(0), float32(1), uint8(1))
	f.Fuzz(func(t *testing.T, x0, y0, z0, w0, x1, y1, z1, w1, x2, y2, z2, w2 float32, cull uint8) {
		v := [3]ShadedVertex{
			{ClipPos: gmath.Vec4{X: x0, Y: y0, Z: z0, W: w0}},
			{ClipPos: gmath.Vec4{X: x1, Y: y1, Z: z1, W: w1}},
			{ClipPos: gmath.Vec4{X: x2, Y: y2, Z: z2, W: w2}},
		}
		for k := range v {
			v[k].Var[1] = gmath.V4(float32(k), 1, 2, 3)
		}
		checkClipMatchesReference(t, &Pipeline{}, &v,
			Config{ViewportW: 64, ViewportH: 48, Cull: CullMode(cull % 3)})
	})
}

// allocTestDraws returns a vertex buffer and list, strip and fan index
// buffers whose triangles cover every outcome: traversed, clipped to a
// polygon, trivially clipped and back-face culled.
func allocTestDraws() (*VertexBuffer, [3]*IndexBuffer) {
	pos := []gmath.Vec4{
		{X: -0.5, Y: -0.5, Z: 0, W: 1}, // 0
		{X: 0.5, Y: -0.5, Z: 0, W: 1},  // 1
		{X: 0, Y: 0.5, Z: 0, W: 1},     // 2
		{X: 3, Y: -0.5, Z: 0, W: 1},    // 3: outside right
		{X: -0.5, Y: 3, Z: 0.5, W: 1},  // 4: outside top
		{X: 5, Y: 5, Z: 0, W: 1},       // 5: outside right and top
		{X: 6, Y: 5, Z: 0, W: 1},       // 6
		{X: 5, Y: 6, Z: 0, W: 1},       // 7
	}
	vb := vbFromPositions(pos)
	list := &IndexBuffer{BytesPerIndex: 2, Indices: []uint32{
		0, 1, 2, // traversed
		0, 3, 4, // straddles two planes: clipped to a polygon
		5, 6, 7, // trivially clipped
		1, 0, 2, // back-facing: culled
	}}
	strip := &IndexBuffer{BytesPerIndex: 2, Indices: []uint32{0, 1, 2, 3, 4, 5, 6, 7}}
	fan := &IndexBuffer{BytesPerIndex: 4, Indices: []uint32{0, 1, 3, 4, 2, 5, 6}}
	return vb, [3]*IndexBuffer{list, strip, fan}
}

func TestDrawAllocFree(t *testing.T) {
	p, vs, _ := newTestPipeline()
	vb, ibs := allocTestDraws()
	prims := [3]PrimitiveType{TriangleList, TriangleStrip, TriangleFan}
	var total Stats
	polygon := false
	for i, ib := range ibs { // warm the scratch buffers
		tris, st := p.Draw(vb, ib, prims[i], vs, defaultCfg)
		total.add(st)
		polygon = polygon || len(tris) > int(st.TrianglesTraversed)
	}
	if total.TrianglesClipped == 0 || total.TrianglesCulled == 0 || total.TrianglesTraversed == 0 || !polygon {
		t.Fatalf("draws must clip, cull, traverse and split a polygon: %+v (polygon %v)", total, polygon)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i, ib := range ibs {
			p.Draw(vb, ib, prims[i], vs, defaultCfg)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Draw allocates %.1f times per run, want 0", allocs)
	}
}

// TestDrawZeroesUnwrittenVaryings pins that the reused vertex-shader
// register arrays start each vertex zeroed: a program that leaves a
// varying unwritten must emit zero there even after a program that wrote
// it.
func TestDrawZeroesUnwrittenVaryings(t *testing.T) {
	p, vs, _ := newTestPipeline()
	writesO3 := shader.MustAssemble("writes-o3", shader.VertexProgram, `
		dp4 o0.x, c0, v0
		dp4 o0.y, c1, v0
		dp4 o0.z, c2, v0
		dp4 o0.w, c3, v0
		mov o3, v1
	`)
	vb := vbFromPositions(frontTriangle())
	ib := &IndexBuffer{Indices: []uint32{0, 1, 2}, BytesPerIndex: 2}
	if tris, _ := p.Draw(vb, ib, TriangleList, writesO3, defaultCfg); len(tris) != 1 || tris[0].V[0].Var[2] == (gmath.Vec4{}) {
		t.Fatalf("setup draw: %+v", tris)
	}
	tris, _ := p.Draw(vb, ib, TriangleList, vs, defaultCfg)
	if len(tris) != 1 {
		t.Fatalf("draw emitted %d triangles", len(tris))
	}
	for _, v := range tris[0].V {
		if v.Var[2] != (gmath.Vec4{}) {
			t.Errorf("unwritten varying o3 = %v, want zero", v.Var[2])
		}
	}
}

// BenchmarkGeomDraw measures the geometry pipeline on a 64x64-quad grid
// that overhangs the viewport (so a band of triangles is clipped) with a
// checkerboard of flipped quads (culled), reporting ns per assembled
// triangle. A warmed Draw allocates nothing.
func BenchmarkGeomDraw(b *testing.B) {
	const n = 64
	var pos []gmath.Vec4
	for y := 0; y <= n; y++ {
		for x := 0; x <= n; x++ {
			pos = append(pos, gmath.Vec4{
				X: -1.25 + 2.5*float32(x)/n, Y: -1.25 + 2.5*float32(y)/n,
				Z: 0.5 * float32(x-y) / n, W: 1,
			})
		}
	}
	var idx []uint32
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			i := uint32(y*(n+1) + x)
			a, c := i+1, i+n+1
			if (x+y)%7 == 0 {
				a, c = c, a // back-facing quad
			}
			idx = append(idx, i, a, c, i+1, i+n+2, i+n+1)
		}
	}
	p, vs, _ := newTestPipeline()
	vb := vbFromPositions(pos)
	ib := &IndexBuffer{Indices: idx, BytesPerIndex: 4}
	cfg := Config{ViewportW: 256, ViewportH: 192, Cull: CullBack}
	p.Draw(vb, ib, TriangleList, vs, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Draw(vb, ib, TriangleList, vs, cfg)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(idx)/3), "ns/triangle")
}
