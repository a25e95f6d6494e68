package texture

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpuchar/internal/cache"
	"gpuchar/internal/gmath"
	"gpuchar/internal/mem"
)

// refUnit is the per-texel texture sampler: SampleQuad, bilinear,
// fetchNearest and fetchTexel are kept verbatim as the oracle for the
// footprint-granular Unit (the decompressed-space offset goes through
// refUncompressedOffset, which address_test.go pins to the production
// layout). Every texel computes its own address and makes its own L0
// access; the production Unit must reproduce its output bits, sampling
// statistics, L0/L1 statistics and GDDR texture traffic exactly.
type refUnit struct {
	bindings [16]binding
	l1Cfg    cache.Config
	l0       *cache.Cache
	l1       *cache.Cache
	memctl   *mem.Controller
	stats    SampleStats
}

func newRefUnit(m *mem.Controller, l0, l1 cache.Config) *refUnit {
	return &refUnit{l1Cfg: l1, l0: cache.MustNew(l0), l1: cache.MustNew(l1), memctl: m}
}

func (u *refUnit) SampleQuad(unit int, coords *[4]gmath.Vec4, bias float32,
	projective bool) [4]gmath.Vec4 {

	b := &u.bindings[unit&15]
	if b.tex == nil {
		return [4]gmath.Vec4{}
	}
	var st [4]gmath.Vec2
	for lane := 0; lane < 4; lane++ {
		s, t, q := coords[lane].X, coords[lane].Y, coords[lane].W
		if projective && q != 0 {
			s, t = s/q, t/q
		}
		st[lane] = gmath.V2(s, t)
	}

	w0, h0 := b.tex.LevelSize(0)
	fw, fh := float32(w0), float32(h0)
	// Texel-space derivatives across the quad.
	dx := gmath.V2((st[1].X-st[0].X)*fw, (st[1].Y-st[0].Y)*fh)
	dy := gmath.V2((st[2].X-st[0].X)*fw, (st[2].Y-st[0].Y)*fh)
	lenX := dx.Len()
	lenY := dy.Len()

	pMax, pMin := lenX, lenY
	major := dx
	if lenY > lenX {
		pMax, pMin = lenY, lenX
		major = dy
	}
	if pMax < 1e-8 {
		pMax = 1e-8
	}
	if pMin < 1e-8 {
		pMin = 1e-8
	}

	// Probe count and LOD per filter mode.
	probes := 1
	lod := float32(math.Log2(float64(pMax)))
	switch b.state.Filter {
	case FilterAniso:
		ratio := pMax / pMin
		maxA := float32(b.state.MaxAniso)
		if maxA < 1 {
			maxA = 1
		}
		if ratio > maxA {
			ratio = maxA
		}
		probes = int(math.Ceil(float64(ratio)))
		if probes < 1 {
			probes = 1
		}
		lod = float32(math.Log2(float64(pMax / float32(probes))))
	case FilterNearest, FilterBilinear:
		// single probe at rounded/fractional lod below
	case FilterTrilinear:
		// single probe, two mips
	}
	lod += b.state.LODBias + bias
	maxLod := float32(b.tex.Levels() - 1)
	lod = gmath.Clamp(lod, 0, maxLod)

	trilinear := b.state.Filter == FilterTrilinear || b.state.Filter == FilterAniso
	var out [4]gmath.Vec4
	for lane := 0; lane < 4; lane++ {
		u.stats.Requests++
		var acc gmath.Vec4
		// Probe positions step along the major footprint axis in
		// normalized coordinates.
		stepS := major.X / (fw * float32(probes))
		stepT := major.Y / (fh * float32(probes))
		for p := 0; p < probes; p++ {
			off := float32(p) - float32(probes-1)/2
			ps := st[lane].X + stepS*off
			pt := st[lane].Y + stepT*off
			var c gmath.Vec4
			switch {
			case b.state.Filter == FilterNearest:
				c = u.fetchNearest(b.tex, ps, pt, int(lod+0.5))
				u.stats.BilinearSamples++ // nearest occupies one sample slot
			case trilinear:
				l0i := int(lod)
				frac := lod - float32(l0i)
				cA := u.bilinear(b.tex, ps, pt, l0i)
				cB := u.bilinear(b.tex, ps, pt, minInt(l0i+1, int(maxLod)))
				c = cA.Lerp(cB, frac)
				u.stats.BilinearSamples += 2
			default: // bilinear
				c = u.bilinear(b.tex, ps, pt, int(lod+0.5))
				u.stats.BilinearSamples++
			}
			acc = acc.Add(c)
		}
		out[lane] = acc.Scale(1 / float32(probes))
	}
	return out
}

// bilinear performs one bilinear sample: four texel fetches with
// fractional weighting.
func (u *refUnit) bilinear(t *Texture, s, tc float32, lv int) gmath.Vec4 {
	lw, lh := t.LevelSize(lv)
	x := s*float32(lw) - 0.5
	y := tc*float32(lh) - 0.5
	x0 := int(floorf(x))
	y0 := int(floorf(y))
	fx := x - float32(x0)
	fy := y - float32(y0)

	c00 := u.fetchTexel(t, x0, y0, lv)
	c10 := u.fetchTexel(t, x0+1, y0, lv)
	c01 := u.fetchTexel(t, x0, y0+1, lv)
	c11 := u.fetchTexel(t, x0+1, y0+1, lv)

	top := c00.Lerp(c10, fx)
	bot := c01.Lerp(c11, fx)
	return top.Lerp(bot, fy)
}

func (u *refUnit) fetchNearest(t *Texture, s, tc float32, lv int) gmath.Vec4 {
	lw, lh := t.LevelSize(lv)
	x := int(floorf(s * float32(lw)))
	y := int(floorf(tc * float32(lh)))
	return u.fetchTexel(t, x, y, lv)
}

// fetchTexel reads one texel, driving the cache hierarchy: the L0 cache
// is addressed in decompressed space; an L0 miss fetches through the L1
// cache in compressed space; an L1 miss reads GDDR.
func (u *refUnit) fetchTexel(t *Texture, x, y, lv int) gmath.Vec4 {
	c, compAddr := t.Texel(x, y, lv)
	u.stats.TexelFetches++
	// Decompressed-space address: scale the texture's base so distinct
	// textures never alias (decompressed data is at most 8x larger than
	// DXT1; 16x margin).
	uncAddr := t.BaseAddr*16 + refUncompressedOffset(t, x, y, lv)
	if !u.l0.Access(uncAddr, false) {
		if !u.l1.Access(compAddr, false) && u.memctl != nil {
			u.memctl.Read(mem.ClientTexture, int64(u.l1Cfg.LineBytes))
		}
	}
	return gmath.Vec4{
		X: float32(c.R) / 255,
		Y: float32(c.G) / 255,
		Z: float32(c.B) / 255,
		W: float32(c.A) / 255,
	}
}

// TestSampleQuadMatchesPerTexelReference drives the footprint-granular
// Unit and the per-texel refUnit through identical quad streams and
// demands bit-identical results after every call. The streams walk the
// texture coherently (so footprints repeat, straddle and revisit L0
// lines) and mix in hostile coordinates: negative, beyond 1, huge, NaN,
// infinite, and projective divides by zero or negative q. The L0
// geometries include the 1-way ones where a line can evict the line
// touched just before it.
func TestSampleQuadMatchesPerTexelReference(t *testing.T) {
	type texSpec struct {
		name   string
		format Format
		stored bool // FromRGBA storage rather than procedural content
	}
	texSpecs := []texSpec{
		{"proc-dxt1", FormatDXT1, false},
		{"proc-rgba8", FormatRGBA8, false},
		{"proc-l8", FormatL8, false},
		{"stored-dxt1", FormatDXT1, true},
		{"stored-dxt5", FormatDXT5, true},
		{"stored-rgba8", FormatRGBA8, true},
	}
	sizes := [][2]int{{1, 1}, {2, 2}, {8, 2}, {256, 256}}
	l0s := []cache.Config{
		{Ways: 64, Sets: 1, LineBytes: 64},
		{Ways: 1, Sets: 1, LineBytes: 64},
		{Ways: 2, Sets: 1, LineBytes: 64},
		{Ways: 1, Sets: 8, LineBytes: 64},
		{Ways: 64, Sets: 1, LineBytes: 16},
		{Ways: 64, Sets: 1, LineBytes: 128},
	}
	filters := []FilterMode{FilterNearest, FilterBilinear, FilterTrilinear, FilterAniso}
	const quads = 150
	// BaseAddr deliberately not 64-byte aligned, so compressed blocks
	// and decompressed tiles straddle cache lines.
	const baseAddr = 0x40_0024

	rng := rand.New(rand.NewSource(1))
	for _, ts := range texSpecs {
		for _, sz := range sizes {
			w, h := sz[0], sz[1]
			var tex *Texture
			if ts.stored {
				img := make([]RGBA, w*h)
				for i := range img {
					v := rng.Uint32()
					img[i] = RGBA{uint8(v), uint8(v >> 8), uint8(v >> 16), uint8(v >> 24)}
				}
				var err error
				if tex, err = FromRGBA(ts.name, ts.format, w, h, img); err != nil {
					t.Fatal(err)
				}
			} else {
				tex = MustNew(ts.name, ts.format, w, h, Noise(uint32(w*h)))
			}
			tex.BaseAddr = baseAddr
			for _, l0 := range l0s {
				for _, f := range filters {
					name := fmt.Sprintf("%s/%dx%d/%v/%v", ts.name, w, h, l0, f)
					st := SamplerState{Filter: f, MaxAniso: 16, LODBias: float32(rng.Intn(3)-1) / 2}
					gotMem, wantMem := mem.NewController(), mem.NewController()
					got := NewUnitCaches(gotMem, l0, L1Config)
					want := newRefUnit(wantMem, l0, L1Config)
					got.Bind(2, tex, st)
					want.bindings[2] = binding{tex: tex, state: st}
					walk := quadWalk{rng: rng, w: float32(w), h: float32(h)}
					for q := 0; q < quads; q++ {
						coords, bias, projective := walk.next()
						g := got.SampleQuad(2, &coords, bias, projective)
						r := want.SampleQuad(2, &coords, bias, projective)
						for lane := range g {
							if !sameBits(g[lane], r[lane]) {
								t.Fatalf("%s quad %d lane %d: %v, reference %v (coords %v projective %v)",
									name, q, lane, g[lane], r[lane], coords, projective)
							}
						}
						if gs, rs := got.Stats(), want.stats; gs != rs {
							t.Fatalf("%s quad %d: sample stats %+v, reference %+v", name, q, gs, rs)
						}
						if gs, rs := got.L0Stats(), want.l0.Stats(); gs != rs {
							t.Fatalf("%s quad %d: L0 stats %+v, reference %+v", name, q, gs, rs)
						}
						if gs, rs := got.L1Stats(), want.l1.Stats(); gs != rs {
							t.Fatalf("%s quad %d: L1 stats %+v, reference %+v", name, q, gs, rs)
						}
						gt, rt := gotMem.ClientTraffic(mem.ClientTexture), wantMem.ClientTraffic(mem.ClientTexture)
						if gt != rt {
							t.Fatalf("%s quad %d: texture traffic %+v, reference %+v", name, q, gt, rt)
						}
					}
				}
			}
		}
	}
}

// quadWalk generates the quad stream of the differential test: a
// coherent left-to-right, row-by-row walk over the texture at a
// footprint that varies from a fraction of a texel to many texels per
// pixel and between isotropic and strongly anisotropic, interrupted by
// hostile coordinates.
type quadWalk struct {
	rng  *rand.Rand
	w, h float32
	s, t float32
}

func (q *quadWalk) next() (coords [4]gmath.Vec4, bias float32, projective bool) {
	r := q.rng
	// Texels per pixel along each screen axis.
	scale := []float32{0.25, 0.5, 1, 1, 1, 2, 3, 8}
	du := scale[r.Intn(len(scale))] / q.w
	dv := scale[r.Intn(len(scale))] / q.h
	if r.Intn(4) == 0 {
		du *= 16 // anisotropic footprint
	}
	q.s += du * float32(1+r.Intn(2))
	if q.s > 1.5 {
		q.s = -0.25
		q.t += dv * 2
	}
	if q.t > 1.5 {
		q.t = -0.25
	}
	s, t := q.s, q.t
	switch r.Intn(40) {
	case 0:
		s = float32(math.NaN())
	case 1:
		t = float32(math.Inf(1))
	case 2:
		s = float32(math.Inf(-1))
	case 3:
		s, t = 1e30, -1e30
	case 4:
		s, t = s-7, t+5
	case 5:
		du = float32(math.NaN())
	case 6:
		dv = float32(math.Inf(1))
	}
	w := float32(1)
	projective = r.Intn(3) == 0
	if projective {
		ws := []float32{0.5, 1, 2, 3.7, 0, -1, 1e-30}
		w = ws[r.Intn(len(ws))]
	}
	coords = [4]gmath.Vec4{
		{X: s * w, Y: t * w, W: w},
		{X: (s + du) * w, Y: t * w, W: w},
		{X: s * w, Y: (t + dv) * w, W: w},
		{X: (s + du) * w, Y: (t + dv) * w, W: w},
	}
	bias = float32(r.Intn(5)-2) / 2
	return coords, bias, projective
}

func sameBits(a, b gmath.Vec4) bool {
	return math.Float32bits(a.X) == math.Float32bits(b.X) &&
		math.Float32bits(a.Y) == math.Float32bits(b.Y) &&
		math.Float32bits(a.Z) == math.Float32bits(b.Z) &&
		math.Float32bits(a.W) == math.Float32bits(b.W)
}
