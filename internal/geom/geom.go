// Package geom implements the geometry stages of the rendering pipeline:
// indexed vertex fetch, vertex shading through a post-transform vertex
// cache, primitive assembly for triangle lists, strips and fans,
// homogeneous view-frustum clipping, face culling and the viewport
// transform.
//
// These stages produce the statistics of the paper's §III.B: indices and
// assembled triangles per frame (Figure 6), the percentage of clipped,
// culled and traversed triangles (Table VII), and the vertex cache hit
// rate (Figure 5) whose ~66% bound explains why games use triangle lists
// rather than strips.
package geom

import (
	"fmt"

	"gpuchar/internal/cache"
	"gpuchar/internal/gmath"
	"gpuchar/internal/mem"
	"gpuchar/internal/metrics"
	"gpuchar/internal/shader"
)

// PrimitiveType selects how the index stream is assembled into
// triangles. The paper's benchmarks use only these three (Table V).
type PrimitiveType uint8

// Triangle assembly modes.
const (
	TriangleList PrimitiveType = iota
	TriangleStrip
	TriangleFan
)

// String names the primitive type with the paper's abbreviations.
func (p PrimitiveType) String() string {
	switch p {
	case TriangleList:
		return "TL"
	case TriangleStrip:
		return "TS"
	case TriangleFan:
		return "TF"
	default:
		return fmt.Sprintf("Prim(%d)", uint8(p))
	}
}

// TriangleCount returns the number of triangles assembled from n indices
// under this primitive type — the arithmetic behind the paper's Table V
// "primitives per frame" column.
func (p PrimitiveType) TriangleCount(n int) int {
	switch p {
	case TriangleList:
		return n / 3
	default: // strip or fan
		if n < 3 {
			return 0
		}
		return n - 2
	}
}

// NumVaryings is the number of interpolated attribute slots carried from
// vertex to fragment shading (vertex shader outputs o1..o4; o0 is the
// clip-space position).
const NumVaryings = 4

// VertexBuffer holds per-vertex attributes resident in GPU memory.
// Attribute slot 0 is the object-space position.
type VertexBuffer struct {
	// Attribs[slot][vertex]; all slots must have equal length.
	Attribs [][]gmath.Vec4
	// StrideBytes is the memory footprint of one vertex, used for
	// traffic accounting (up to 16 attributes x 16 bytes in the paper).
	StrideBytes int
	// BaseAddr is the GPU virtual address of the buffer.
	BaseAddr uint64
}

// NumVertices returns the vertex count (0 for an empty buffer).
func (vb *VertexBuffer) NumVertices() int {
	if len(vb.Attribs) == 0 {
		return 0
	}
	return len(vb.Attribs[0])
}

// IndexBuffer is a list of vertex indices plus the per-index byte size,
// which Table III shows is fixed per game middleware (2 or 4 bytes).
type IndexBuffer struct {
	Indices       []uint32
	BytesPerIndex int
	BaseAddr      uint64
}

// ShadedVertex is a post-vertex-shader vertex: clip-space position plus
// varyings.
type ShadedVertex struct {
	ClipPos gmath.Vec4
	Var     [NumVaryings]gmath.Vec4
}

// ScreenVertex is a viewport-transformed vertex ready for
// rasterization. Varyings are pre-multiplied by InvW for
// perspective-correct interpolation.
type ScreenVertex struct {
	X, Y float32 // window coordinates (pixels)
	Z    float32 // depth in [0,1]
	InvW float32
	Var  [NumVaryings]gmath.Vec4 // varying * InvW
}

// Triangle is a screen-space triangle emitted to the rasterizer. The
// vertex order is always counter-clockwise; back-facing triangles kept
// alive by CullNone are re-wound and flagged via FrontFacing, which the
// two-sided stencil test consumes (Doom3/Quake4 shadow volumes).
type Triangle struct {
	V [3]ScreenVertex
	// CountsAsTraversed is false for the extra sub-triangles produced
	// when clipping splits a triangle, so triangle-level statistics
	// count each source triangle once.
	CountsAsTraversed bool
	// FrontFacing is false when the source triangle was back-facing and
	// survived because culling was off.
	FrontFacing bool
}

// Stats accumulates geometry-stage activity.
type Stats struct {
	Indices            int64 // index references processed
	VerticesShaded     int64 // vertex cache misses = vertex shader runs
	TrianglesAssembled int64
	TrianglesClipped   int64 // fully outside the frustum
	TrianglesCulled    int64 // back-facing or zero area
	TrianglesTraversed int64 // sent to the rasterizer
}

// Register binds every counter of s into the registry under prefix —
// the single definition of the geometry counter names. Cross-stage
// accumulation goes through metrics.Snapshot arithmetic, not hand-coded
// Add methods.
func (s *Stats) Register(r *metrics.Registry, prefix string) {
	r.Bind(prefix+"/indices", &s.Indices)
	r.Bind(prefix+"/vertices_shaded", &s.VerticesShaded)
	r.Bind(prefix+"/triangles_assembled", &s.TrianglesAssembled)
	r.Bind(prefix+"/triangles_clipped", &s.TrianglesClipped)
	r.Bind(prefix+"/triangles_culled", &s.TrianglesCulled)
	r.Bind(prefix+"/triangles_traversed", &s.TrianglesTraversed)
}

// add accumulates one draw's counters into the pipeline total.
func (s *Stats) add(o Stats) {
	s.Indices += o.Indices
	s.VerticesShaded += o.VerticesShaded
	s.TrianglesAssembled += o.TrianglesAssembled
	s.TrianglesClipped += o.TrianglesClipped
	s.TrianglesCulled += o.TrianglesCulled
	s.TrianglesTraversed += o.TrianglesTraversed
}

// CullMode selects which triangle facing is discarded.
type CullMode uint8

// Face culling modes.
const (
	CullBack CullMode = iota
	CullFront
	CullNone
)

// Config sets the fixed-function geometry state for a draw.
type Config struct {
	ViewportW int
	ViewportH int
	Cull      CullMode
}

// maxClipVerts bounds the polygon clipping one triangle produces: three
// vertices plus at most one per frustum plane, since clipping a convex
// polygon against a plane adds at most one vertex. Non-finite
// coordinates (or rounding on a degenerate sliver) can break convexity;
// the clipper then grows past this bound by append, never by indexing.
const maxClipVerts = 3 + int(gmath.NumClipPlanes)

// Pipeline is the geometry engine. It owns the post-transform vertex
// cache and a scratch table of shaded vertices.
type Pipeline struct {
	VCache  *cache.VertexCache
	Machine *shader.Machine
	Memctl  *mem.Controller

	// scratch, reused across draws
	shaded []ShadedVertex
	epoch  []uint32
	gen    uint32

	// Per-draw scratch, reused so that a warmed Draw allocates nothing
	// (pinned by TestDrawAllocFree): the in-range index stream, the
	// assembled index triples, the emitted triangles (Draw's result), the
	// clipper's ping-pong polygons and the projected polygon.
	idx    []uint32
	asm    [][3]uint32
	out    []Triangle
	clip   [2][maxClipVerts]ShadedVertex
	screen [maxClipVerts]ScreenVertex
	// The vertex shader's register arrays: the machine holds pointers to
	// them while it runs, so stack arrays would escape to the heap on
	// every shaded vertex.
	vin  [shader.NumInputs]gmath.Vec4
	vout [shader.NumOutputs]gmath.Vec4

	// stats accumulates across draws; the metrics registry binds to it.
	stats Stats
}

// Stats returns the counters accumulated over all draws.
func (p *Pipeline) Stats() Stats { return p.stats }

// RegisterMetrics binds the pipeline's live counters into r under
// prefix.
func (p *Pipeline) RegisterMetrics(r *metrics.Registry, prefix string) {
	p.stats.Register(r, prefix)
}

// DefaultVertexCacheSize matches the mid-2000s hardware the paper
// simulates (a small FIFO; ATTILA and contemporary GPUs used 16 entries).
const DefaultVertexCacheSize = 16

// NewPipeline creates a geometry pipeline with the given shader machine
// and memory controller (memctl may be nil to skip traffic accounting).
func NewPipeline(m *shader.Machine, memctl *mem.Controller) *Pipeline {
	return &Pipeline{
		VCache:  cache.MustVertexCache(DefaultVertexCacheSize),
		Machine: m,
		Memctl:  memctl,
	}
}

// Draw runs one batch through the geometry pipeline and returns the
// screen triangles to rasterize plus the per-draw statistics. The vertex
// shader program's constants must already be loaded into the Machine.
//
// The returned slice is the Pipeline's scratch: it is valid until the
// next Draw, which overwrites it. Callers that keep triangles longer must
// copy them (the GPU copies each into its triangle setup).
func (p *Pipeline) Draw(vb *VertexBuffer, ib *IndexBuffer, prim PrimitiveType,
	vs *shader.Program, cfg Config) ([]Triangle, Stats) {

	var st Stats
	nv := vb.NumVertices()
	if nv == 0 || len(ib.Indices) == 0 {
		return nil, st
	}
	p.ensureScratch(nv)
	// A new batch invalidates the post-transform cache: shader state and
	// stream bindings changed.
	p.VCache.Clear()

	// Shade (through the vertex cache) every referenced index.
	p.idx = p.idx[:0]
	for _, idx := range ib.Indices {
		if int(idx) >= nv {
			continue // out-of-range index: drop, like a defensive driver
		}
		st.Indices++
		if p.Memctl != nil {
			p.Memctl.Read(mem.ClientVertex, int64(ib.BytesPerIndex))
		}
		if !p.VCache.Lookup(idx) {
			p.shadeVertex(vb, idx, vs)
			st.VerticesShaded++
			if p.Memctl != nil {
				p.Memctl.Read(mem.ClientVertex, int64(vb.StrideBytes))
			}
		} else if p.epoch[idx] != p.gen {
			// The FIFO remembers the index from a previous generation of
			// this scratch table; reshade to keep values fresh.
			p.shadeVertex(vb, idx, vs)
		}
		p.idx = append(p.idx, idx)
	}

	// Assemble primitives and clip/cull/transform.
	p.asm = assemble(p.asm[:0], p.idx, prim)
	st.TrianglesAssembled += int64(len(p.asm))
	p.out = p.out[:0]
	for _, tri := range p.asm {
		v0 := &p.shaded[tri[0]]
		v1 := &p.shaded[tri[1]]
		v2 := &p.shaded[tri[2]]
		outcome := p.clipCullEmit(v0, v1, v2, cfg)
		switch outcome {
		case resultClipped:
			st.TrianglesClipped++
		case resultCulled:
			st.TrianglesCulled++
		default:
			st.TrianglesTraversed++
		}
	}
	p.stats.add(st)
	return p.out, st
}

func (p *Pipeline) ensureScratch(nv int) {
	if cap(p.shaded) < nv {
		p.shaded = make([]ShadedVertex, nv)
		p.epoch = make([]uint32, nv)
	}
	p.shaded = p.shaded[:nv]
	p.epoch = p.epoch[:nv]
	p.gen++
}

func (p *Pipeline) shadeVertex(vb *VertexBuffer, idx uint32, vs *shader.Program) {
	// Both register arrays start zeroed, as fresh locals would: unbound
	// input slots read zero and unwritten outputs carry zero varyings.
	in, out := &p.vin, &p.vout
	*in = [shader.NumInputs]gmath.Vec4{}
	for slot, data := range vb.Attribs {
		if slot >= shader.NumInputs {
			break
		}
		in[slot] = data[idx]
	}
	*out = [shader.NumOutputs]gmath.Vec4{}
	p.Machine.RunVertex(vs, in, out)
	sv := &p.shaded[idx]
	sv.ClipPos = out[0]
	for i := 0; i < NumVaryings; i++ {
		sv.Var[i] = out[1+i]
	}
	p.epoch[idx] = p.gen
}

// assemble appends the index stream's triangles (as index triples) to
// tris and returns the extended slice.
func assemble(tris [][3]uint32, idx []uint32, prim PrimitiveType) [][3]uint32 {
	switch prim {
	case TriangleList:
		for i := 0; i+2 < len(idx); i += 3 {
			tris = append(tris, [3]uint32{idx[i], idx[i+1], idx[i+2]})
		}
	case TriangleStrip:
		for i := 0; i+2 < len(idx); i++ {
			a, b, c := idx[i], idx[i+1], idx[i+2]
			if i%2 == 1 {
				// Flip winding on odd triangles to keep orientation.
				a, b = b, a
			}
			tris = append(tris, [3]uint32{a, b, c})
		}
	case TriangleFan:
		for i := 1; i+1 < len(idx); i++ {
			tris = append(tris, [3]uint32{idx[0], idx[i], idx[i+1]})
		}
	}
	return tris
}

type clipResult uint8

const (
	resultTraversed clipResult = iota
	resultClipped
	resultCulled
)

// clipCullEmit classifies one assembled triangle and appends its screen
// triangles to p.out when it survives.
func (p *Pipeline) clipCullEmit(v0, v1, v2 *ShadedVertex, cfg Config) clipResult {

	c0 := gmath.OutcodeOf(v0.ClipPos)
	c1 := gmath.OutcodeOf(v1.ClipPos)
	c2 := gmath.OutcodeOf(v2.ClipPos)
	if c0&c1&c2 != 0 {
		return resultClipped // trivially outside one plane
	}

	verts := append(p.clip[0][:0], *v0, *v1, *v2)
	if c0|c1|c2 != 0 {
		// Straddles the frustum: Sutherland-Hodgman clip in homogeneous
		// space against all six planes.
		verts = p.clipPolygon(verts)
		if len(verts) < 3 {
			return resultClipped
		}
	}

	// Project to screen space.
	screen := p.screen[:0]
	for i := range verts {
		screen = append(screen, toScreen(&verts[i], cfg))
	}

	// Face cull using the signed area of the first sub-triangle (the
	// polygon is planar and convex, so all sub-triangles agree).
	area := signedArea(screen[0], screen[1], screen[2])
	front := area > 0
	switch cfg.Cull {
	case CullBack:
		if area <= 0 {
			return resultCulled
		}
	case CullFront:
		if area >= 0 {
			return resultCulled
		}
		// Kept triangles are back-facing: re-wind to CCW for setup.
		reverse(screen)
	default:
		if area == 0 {
			return resultCulled // degenerate
		}
		if !front {
			reverse(screen)
		}
	}

	// Fan-triangulate the clipped polygon.
	for i := 1; i+1 < len(screen); i++ {
		p.out = append(p.out, Triangle{
			V:                 [3]ScreenVertex{screen[0], screen[i], screen[i+1]},
			CountsAsTraversed: i == 1,
			FrontFacing:       front,
		})
	}
	return resultTraversed
}

func reverse(s []ScreenVertex) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// clipPolygon clips a convex polygon against the six frustum planes in
// homogeneous space. The planes ping-pong between the two clip buffers:
// plane k writes p.clip[(k+1)%2], so it never overwrites its input (the
// caller's polygon sits in p.clip[0]).
func (p *Pipeline) clipPolygon(in []ShadedVertex) []ShadedVertex {
	planes := gmath.FrustumPlanes()
	poly := in
	for k, pl := range planes {
		if len(poly) == 0 {
			return nil
		}
		next := p.clip[(k+1)%2][:0]
		for i := range poly {
			cur := &poly[i]
			prev := &poly[(i+len(poly)-1)%len(poly)]
			dc := pl.Dist(cur.ClipPos)
			dp := pl.Dist(prev.ClipPos)
			if dp >= 0 != (dc >= 0) {
				// Edge crosses the plane: add intersection.
				t := dp / (dp - dc)
				next = append(next, lerpVertex(prev, cur, t))
			}
			if dc >= 0 {
				next = append(next, *cur)
			}
		}
		poly = next
	}
	return poly
}

func lerpVertex(a, b *ShadedVertex, t float32) ShadedVertex {
	var out ShadedVertex
	out.ClipPos = a.ClipPos.Lerp(b.ClipPos, t)
	for i := 0; i < NumVaryings; i++ {
		out.Var[i] = a.Var[i].Lerp(b.Var[i], t)
	}
	return out
}

func toScreen(v *ShadedVertex, cfg Config) ScreenVertex {
	w := v.ClipPos.W
	if w == 0 {
		w = 1e-9
	}
	invW := 1 / w
	ndcX := v.ClipPos.X * invW
	ndcY := v.ClipPos.Y * invW
	ndcZ := v.ClipPos.Z * invW
	sv := ScreenVertex{
		X:    (ndcX*0.5 + 0.5) * float32(cfg.ViewportW),
		Y:    (ndcY*0.5 + 0.5) * float32(cfg.ViewportH),
		Z:    ndcZ*0.5 + 0.5,
		InvW: invW,
	}
	for i := 0; i < NumVaryings; i++ {
		sv.Var[i] = v.Var[i].Scale(invW)
	}
	return sv
}

func signedArea(a, b, c ScreenVertex) float32 {
	return (b.X-a.X)*(c.Y-a.Y) - (c.X-a.X)*(b.Y-a.Y)
}
