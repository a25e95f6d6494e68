// Package rast implements the rasterization stage: linear edge-function
// triangle setup and the recursive tiled traversal used by ATTILA
// (paper §III.C) — a 16x16-pixel upper tile level, 8x8 inner tiles, and
// 2x2 fragment quads, the working unit of the rest of the pipeline.
//
// The stage produces the statistics behind Table VIII / Figure 7
// (fragments per triangle at rasterization) and Table X (quad
// efficiency: the fraction of emitted quads with all four fragments
// covered).
package rast

import (
	"gpuchar/internal/geom"
	"gpuchar/internal/gmath"
	"gpuchar/internal/metrics"
)

// Tile dimensions of the recursive rasterizer.
const (
	OuterTile = 16 // upper traversal level footprint
	InnerTile = 8  // per-cycle generation tile
	QuadDim   = 2  // fragment quad
)

// Quad is a 2x2 block of fragments, the pipeline's working unit. X, Y
// are the window coordinates of the top-left fragment (always even).
type Quad struct {
	X, Y int
	// Mask bit i covers fragment i in order (0,0),(1,0),(0,1),(1,1).
	Mask uint8
	// Z holds the interpolated depth per fragment.
	Z [4]float32
	// Tri points at the owning triangle's interpolation setup.
	Tri *SetupTri
}

// FragCount returns the number of covered fragments in the quad.
func (q *Quad) FragCount() int {
	n := 0
	for i := 0; i < 4; i++ {
		if q.Mask&(1<<i) != 0 {
			n++
		}
	}
	return n
}

// Complete reports whether all four fragments are covered — the quad
// efficiency numerator of the paper's Table X.
func (q *Quad) Complete() bool { return q.Mask == 0xF }

// PixelX and PixelY return the window coordinates of lane i.
func (q *Quad) PixelX(i int) int { return q.X + i&1 }

// PixelY returns the y window coordinate of lane i.
func (q *Quad) PixelY(i int) int { return q.Y + i>>1 }

// plane is an affine screen-space interpolant v(x,y) = a*x + b*y + c.
type plane struct{ a, b, c float32 }

func (p plane) at(x, y float32) float32 { return p.a*x + p.b*y + p.c }

// SetupTri is a triangle after setup: edge equations plus interpolation
// planes for depth, 1/w and the perspective-corrected varyings.
type SetupTri struct {
	// Edge functions, positive inside.
	e [3]plane
	// topLeft marks edges that include boundary samples (fill rule).
	topLeft [3]bool
	z       plane
	invW    plane
	// varying planes: [slot][component], premultiplied by 1/w.
	vr [geom.NumVaryings][4]plane

	minX, minY, maxX, maxY int
}

// Varying evaluates varying slot at pixel center (x, y) with perspective
// correction.
func (t *SetupTri) Varying(slot int, x, y int) gmath.Vec4 {
	fx, fy := float32(x)+0.5, float32(y)+0.5
	iw := t.invW.at(fx, fy)
	if iw == 0 {
		iw = 1e-9
	}
	w := 1 / iw
	return gmath.Vec4{
		X: t.vr[slot][0].at(fx, fy) * w,
		Y: t.vr[slot][1].at(fx, fy) * w,
		Z: t.vr[slot][2].at(fx, fy) * w,
		W: t.vr[slot][3].at(fx, fy) * w,
	}
}

// Stats accumulates rasterizer activity.
type Stats struct {
	TrianglesSetup int64
	QuadsEmitted   int64
	Fragments      int64 // covered fragments generated
	CompleteQuads  int64
}

// Register binds every counter of s into the registry under prefix —
// the single definition of the rasterizer counter names.
func (s *Stats) Register(r *metrics.Registry, prefix string) {
	r.Bind(prefix+"/triangles_setup", &s.TrianglesSetup)
	r.Bind(prefix+"/quads_emitted", &s.QuadsEmitted)
	r.Bind(prefix+"/fragments", &s.Fragments)
	r.Bind(prefix+"/complete_quads", &s.CompleteQuads)
}

// QuadEfficiency returns the percentage of complete quads (Table X).
func (s Stats) QuadEfficiency() float64 {
	if s.QuadsEmitted == 0 {
		return 0
	}
	return 100 * float64(s.CompleteQuads) / float64(s.QuadsEmitted)
}

// Config bounds rasterization to the viewport and an optional scissor
// rectangle.
type Config struct {
	Width, Height int
	// Scissor, when non-zero, restricts output to [X0,X1) x [Y0,Y1).
	ScissorX0, ScissorY0, ScissorX1, ScissorY1 int
}

func (c Config) bounds() (x0, y0, x1, y1 int) {
	x0, y0, x1, y1 = 0, 0, c.Width, c.Height
	if c.ScissorX1 > c.ScissorX0 && c.ScissorY1 > c.ScissorY0 {
		x0, y0 = maxInt(x0, c.ScissorX0), maxInt(y0, c.ScissorY0)
		x1, y1 = minInt(x1, c.ScissorX1), minInt(y1, c.ScissorY1)
	}
	return
}

// QuadEmitter consumes the quads a triangle traversal produces. The
// *Quad passed to EmitQuad is scratch owned by the rasterizer and valid
// only for the duration of the call; consumers that defer processing
// (the tile binner) must copy it.
type QuadEmitter interface {
	EmitQuad(*Quad)
}

// Rasterizer traverses triangles into quads.
type Rasterizer struct {
	stats Stats
	// q is the scratch quad passed to emitters; kept on the rasterizer
	// because taking its address for the QuadEmitter interface call
	// would otherwise heap-allocate one quad per triangle.
	q Quad
}

// New creates a rasterizer.
func New() *Rasterizer { return &Rasterizer{} }

// Stats returns accumulated statistics.
func (r *Rasterizer) Stats() Stats { return r.stats }

// ResetStats clears the counters.
func (r *Rasterizer) ResetStats() { r.stats = Stats{} }

// RegisterMetrics binds the rasterizer's live counters into reg under
// prefix.
func (r *Rasterizer) RegisterMetrics(reg *metrics.Registry, prefix string) {
	r.stats.Register(reg, prefix)
}

// SetupInto computes the edge and interpolation equations of a screen
// triangle into caller-owned storage, so per-triangle setup runs
// without heap allocation on the pipeline's hot path. Every field of s
// is overwritten. It reports false (s undefined) for triangles with
// non-positive area (the geometry stage has already oriented front
// faces counter-clockwise).
func SetupInto(tri *geom.Triangle, s *SetupTri) bool {
	v0, v1, v2 := &tri.V[0], &tri.V[1], &tri.V[2]
	area2 := (v1.X-v0.X)*(v2.Y-v0.Y) - (v2.X-v0.X)*(v1.Y-v0.Y)
	if area2 <= 0 {
		return false
	}
	s.e[0] = edgePlane(v1, v2)
	s.e[1] = edgePlane(v2, v0)
	s.e[2] = edgePlane(v0, v1)
	for i := 0; i < 3; i++ {
		// Top-left rule: an edge is top (horizontal, going left) or left
		// (going down) when its normal components satisfy these signs.
		a, b := s.e[i].a, s.e[i].b
		s.topLeft[i] = a > 0 || (a == 0 && b > 0)
	}
	inv := 1 / area2
	s.z = interpPlane(v0, v1, v2, v0.Z, v1.Z, v2.Z, inv)
	s.invW = interpPlane(v0, v1, v2, v0.InvW, v1.InvW, v2.InvW, inv)
	for slot := 0; slot < geom.NumVaryings; slot++ {
		for c := 0; c < 4; c++ {
			s.vr[slot][c] = interpPlane(v0, v1, v2,
				v0.Var[slot].Comp(c), v1.Var[slot].Comp(c), v2.Var[slot].Comp(c), inv)
		}
	}
	s.minX = int(floor3(v0.X, v1.X, v2.X))
	s.minY = int(floor3(v0.Y, v1.Y, v2.Y))
	s.maxX = int(ceil3(v0.X, v1.X, v2.X))
	s.maxY = int(ceil3(v0.Y, v1.Y, v2.Y))
	return true
}

// edgePlane builds the edge function through a->b, positive on the left
// side (inside for CCW triangles): E(x,y) = A*x + B*y + C with
// A = -(b.Y-a.Y), B = (b.X-a.X), and C chosen so E(a) = 0.
func edgePlane(a, b *geom.ScreenVertex) plane {
	ea := -(b.Y - a.Y)
	eb := b.X - a.X
	return plane{a: ea, b: eb, c: -(ea*a.X + eb*a.Y)}
}

// interpPlane solves the affine interpolant through the three vertices.
func interpPlane(v0, v1, v2 *geom.ScreenVertex, f0, f1, f2, invArea2 float32) plane {
	// Gradient via the standard plane equation solution.
	d10x, d10y, d20x, d20y := v1.X-v0.X, v1.Y-v0.Y, v2.X-v0.X, v2.Y-v0.Y
	df10, df20 := f1-f0, f2-f0
	a := (df10*d20y - df20*d10y) * invArea2
	b := (df20*d10x - df10*d20x) * invArea2
	c := f0 - a*v0.X - b*v0.Y
	return plane{a, b, c}
}

// RasterizeTo traverses one prepared triangle, passing every quad with
// at least one covered fragment to em. Statistics accumulate on the
// rasterizer.
func (r *Rasterizer) RasterizeTo(s *SetupTri, cfg Config, em QuadEmitter) {
	if s == nil {
		return
	}
	r.stats.TrianglesSetup++
	bx0, by0, bx1, by1 := cfg.bounds()
	x0 := maxInt(s.minX, bx0) &^ (OuterTile - 1)
	y0 := maxInt(s.minY, by0) &^ (OuterTile - 1)
	x1 := minInt(s.maxX+1, bx1)
	y1 := minInt(s.maxY+1, by1)

	q := &r.q
	q.Tri = s
	for ty := y0; ty < y1; ty += OuterTile {
		for tx := x0; tx < x1; tx += OuterTile {
			if !s.tileOverlaps(tx, ty, OuterTile) {
				continue
			}
			// Descend into 8x8 inner tiles.
			for iy := ty; iy < ty+OuterTile && iy < y1; iy += InnerTile {
				for ix := tx; ix < tx+OuterTile && ix < x1; ix += InnerTile {
					if !s.tileOverlaps(ix, iy, InnerTile) {
						continue
					}
					r.emitQuads(s, ix, iy, bx0, by0, x1, y1, q, em)
				}
			}
		}
	}
}

// tileOverlaps conservatively tests whether a tile can contain covered
// samples by evaluating each edge at its most-inside corner.
func (s *SetupTri) tileOverlaps(tx, ty, dim int) bool {
	fx0, fy0 := float32(tx), float32(ty)
	fx1, fy1 := float32(tx+dim), float32(ty+dim)
	for i := 0; i < 3; i++ {
		e := s.e[i]
		// Choose the corner maximizing the edge function.
		x, y := fx0, fy0
		if e.a > 0 {
			x = fx1
		}
		if e.b > 0 {
			y = fy1
		}
		if e.at(x, y) < 0 {
			return false
		}
	}
	return true
}

// emitQuads walks the 2x2 quads of one 8x8 inner tile.
func (r *Rasterizer) emitQuads(s *SetupTri, ix, iy, bx0, by0, x1, y1 int,
	q *Quad, em QuadEmitter) {

	for qy := iy; qy < iy+InnerTile && qy < y1; qy += QuadDim {
		if qy+QuadDim <= by0 {
			continue
		}
		for qx := ix; qx < ix+InnerTile && qx < x1; qx += QuadDim {
			if qx+QuadDim <= bx0 {
				continue
			}
			mask := uint8(0)
			for lane := 0; lane < 4; lane++ {
				px := qx + lane&1
				py := qy + lane>>1
				if px < bx0 || px >= x1 || py < by0 || py >= y1 {
					continue
				}
				if s.covers(float32(px)+0.5, float32(py)+0.5) {
					mask |= 1 << lane
				}
			}
			if mask == 0 {
				continue
			}
			q.X, q.Y, q.Mask = qx, qy, mask
			for lane := 0; lane < 4; lane++ {
				q.Z[lane] = s.z.at(float32(qx+lane&1)+0.5, float32(qy+lane>>1)+0.5)
			}
			r.stats.QuadsEmitted++
			r.stats.Fragments += int64(q.FragCount())
			if q.Complete() {
				r.stats.CompleteQuads++
			}
			em.EmitQuad(q)
		}
	}
}

// covers applies the top-left fill rule at a sample position.
func (s *SetupTri) covers(x, y float32) bool {
	for i := 0; i < 3; i++ {
		v := s.e[i].at(x, y)
		if v < 0 || (v == 0 && !s.topLeft[i]) {
			return false
		}
	}
	return true
}

func floor3(a, b, c float32) float32 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

func ceil3(a, b, c float32) float32 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
