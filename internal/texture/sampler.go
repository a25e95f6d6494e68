package texture

import (
	"math"

	"gpuchar/internal/cache"
	"gpuchar/internal/gmath"
	"gpuchar/internal/mem"
	"gpuchar/internal/metrics"
)

// FilterMode selects the texture filtering algorithm.
type FilterMode uint8

// Filtering modes. Anisotropic filtering takes a variable number of
// bilinear probes along the major axis of the pixel footprint — the
// dynamic component the paper's Table XIII characterizes.
const (
	FilterNearest FilterMode = iota
	FilterBilinear
	FilterTrilinear
	FilterAniso
)

// String names the filter mode like the paper's Table I ("Trilinear",
// "Anisotropic").
func (f FilterMode) String() string {
	switch f {
	case FilterNearest:
		return "Nearest"
	case FilterBilinear:
		return "Bilinear"
	case FilterTrilinear:
		return "Trilinear"
	default:
		return "Anisotropic"
	}
}

// SamplerState is the per-unit filtering configuration.
type SamplerState struct {
	Filter FilterMode
	// MaxAniso caps the anisotropy ratio (16 in the paper's "16X" runs).
	MaxAniso int
	// LODBias is added to the computed level of detail.
	LODBias float32
}

// SampleStats counts filtering work in the paper's units.
type SampleStats struct {
	// Requests counts texture requests (one per fragment per texture
	// instruction).
	Requests int64
	// BilinearSamples counts bilinear samples taken; modern GPUs
	// execute one per cycle per pipe, so BilinearSamples/Requests is
	// the throughput cost of Table XIII.
	BilinearSamples int64
	// TexelFetches counts individual texel reads before cache filtering.
	TexelFetches int64
}

// Register binds every counter of s into the registry under prefix —
// the single definition of the texture sampling counter names.
func (s *SampleStats) Register(r *metrics.Registry, prefix string) {
	r.Bind(prefix+"/requests", &s.Requests)
	r.Bind(prefix+"/bilinear_samples", &s.BilinearSamples)
	r.Bind(prefix+"/texel_fetches", &s.TexelFetches)
}

// AvgBilinearPerRequest returns the Table XIII headline metric.
func (s SampleStats) AvgBilinearPerRequest() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.BilinearSamples) / float64(s.Requests)
}

// L0Config and L1Config are the paper's Table XIV texture cache
// geometries: a small fully-associative L0 holding decompressed texels
// and a set-associative L1 holding compressed data. They are the
// defaults for units created without explicit geometries.
var (
	L0Config = cache.Config{Ways: 64, Sets: 1, LineBytes: 64}
	L1Config = cache.Config{Ways: 16, Sets: 16, LineBytes: 64}
)

// Unit is the texture sampling unit: sixteen texture bindings, the
// two-level cache hierarchy, and the memory controller connection. It
// implements the shader.Sampler interface.
type Unit struct {
	bindings [16]binding
	l0Cfg    cache.Config
	l1Cfg    cache.Config
	l0       *cache.Cache
	l1       *cache.Cache
	memctl   *mem.Controller
	stats    SampleStats
}

type binding struct {
	tex   *Texture
	state SamplerState
}

// NewUnit creates a texture unit with the Table XIV cache geometries
// connected to the given memory controller (which may be nil for pure
// filtering tests).
func NewUnit(m *mem.Controller) *Unit {
	return NewUnitCaches(m, L0Config, L1Config)
}

// NewUnitCaches is NewUnit with explicit L0/L1 geometries, the hook the
// sweepable hardware variants configure. The geometries must be valid
// per cache.New; hwconfig.Variant.Validate vets user-supplied configs
// before they reach this constructor.
func NewUnitCaches(m *mem.Controller, l0, l1 cache.Config) *Unit {
	return &Unit{
		l0Cfg:  l0,
		l1Cfg:  l1,
		l0:     cache.MustNew(l0),
		l1:     cache.MustNew(l1),
		memctl: m,
	}
}

// Bind attaches a texture with sampling state to a unit slot.
func (u *Unit) Bind(slot int, t *Texture, st SamplerState) {
	u.bindings[slot&15] = binding{tex: t, state: st}
}

// Stats returns the accumulated sampling statistics.
func (u *Unit) Stats() SampleStats { return u.stats }

// L0Stats and L1Stats expose the cache statistics for Table XIV.
func (u *Unit) L0Stats() cache.Stats { return u.l0.Stats() }

// L1Stats returns the compressed-level cache statistics.
func (u *Unit) L1Stats() cache.Stats { return u.l1.Stats() }

// ResetStats clears sampling and cache statistics.
func (u *Unit) ResetStats() {
	u.stats = SampleStats{}
	u.l0.ResetStats()
	u.l1.ResetStats()
}

// RegisterMetrics binds the sampling and L0/L1 cache counters into r
// under the three prefixes.
func (u *Unit) RegisterMetrics(r *metrics.Registry, texPrefix, l0Prefix, l1Prefix string) {
	u.stats.Register(r, texPrefix)
	u.l0.RegisterMetrics(r, l0Prefix)
	u.l1.RegisterMetrics(r, l1Prefix)
}

// SampleQuad filters the bound texture for a 2x2 quad. The level of
// detail and anisotropy are derived from the coordinate differences
// across the quad, exactly as hardware does. Lane order is (x,y),
// (x+1,y), (x,y+1), (x+1,y+1).
func (u *Unit) SampleQuad(unit int, coords *[4]gmath.Vec4, bias float32,
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
// fractional weighting. The level is clamped and the footprint's two
// columns and two rows are wrapped once; the cache hierarchy is then
// driven once per distinct L0 line of the footprint (touchFootprint).
func (u *Unit) bilinear(t *Texture, s, tc float32, lv int) gmath.Vec4 {
	lv = clampInt(lv, 0, len(t.levels)-1)
	li := &t.levels[lv]
	x := s*float32(li.w) - 0.5
	y := tc*float32(li.h) - 0.5
	x0 := int(floorf(x))
	y0 := int(floorf(y))
	fx := x - float32(x0)
	fy := y - float32(y0)
	xa, xb := x0&li.wMask, (x0+1)&li.wMask
	ya, yb := y0&li.hMask, (y0+1)&li.hMask

	u.stats.TexelFetches += 4
	u.touchFootprint(t, li, xa, xb, ya, yb)

	c00 := unorm(t.texel(lv, xa, ya))
	c10 := unorm(t.texel(lv, xb, ya))
	c01 := unorm(t.texel(lv, xa, yb))
	c11 := unorm(t.texel(lv, xb, yb))

	top := c00.Lerp(c10, fx)
	bot := c01.Lerp(c11, fx)
	return top.Lerp(bot, fy)
}

func (u *Unit) fetchNearest(t *Texture, s, tc float32, lv int) gmath.Vec4 {
	lv = clampInt(lv, 0, len(t.levels)-1)
	li := &t.levels[lv]
	x := int(floorf(s*float32(li.w))) & li.wMask
	y := int(floorf(tc*float32(li.h))) & li.hMask
	u.stats.TexelFetches++
	u.touchTexel(t, li, x, y, t.uncompressedAddr(li, x, y))
	return unorm(t.texel(lv, x, y))
}

// touchFootprint drives the cache hierarchy for the wrapped 2x2
// footprint {xa,xb} x {ya,yb} of one bilinear sample. The counters are
// exactly those of four per-texel accesses in the order (xa,ya),
// (xb,ya), (xa,yb), (xb,yb), but repeated L0 lines are counted rather
// than looked up:
//   - one line (AAAA): a re-access of the line just touched always hits;
//   - two columns of lines (ABAB): A is still resident when it is
//     re-accessed after B unless B's fill evicted it, which needs a
//     one-way set shared by A and B. Re-accessing A then B restores the
//     LRU order the first pair left, so only the hit counter moves.
//
// Every other pattern takes the four accesses in order.
func (u *Unit) touchFootprint(t *Texture, li *levelInfo, xa, xb, ya, yb int) {
	a00 := t.uncompressedAddr(li, xa, ya)
	a10 := t.uncompressedAddr(li, xb, ya)
	a01 := t.uncompressedAddr(li, xa, yb)
	a11 := t.uncompressedAddr(li, xb, yb)
	sh := u.l0.LineShift()
	l00, l10, l01, l11 := a00>>sh, a10>>sh, a01>>sh, a11>>sh
	u.touchTexel(t, li, xa, ya, a00)
	switch {
	case l00 == l10 && l00 == l01 && l00 == l11:
		u.l0.AddHits(3)
	case l01 == l00 && l11 == l10 && u.pairSurvives(l00, l10):
		u.touchTexel(t, li, xb, ya, a10)
		u.l0.AddHits(2)
	default:
		u.touchTexel(t, li, xb, ya, a10)
		u.touchTexel(t, li, xa, yb, a01)
		u.touchTexel(t, li, xb, yb, a11)
	}
}

// pairSurvives reports whether L0 line a is certain to stay resident
// across a fill of line b: the L0 has more than one way (a, just
// touched, is then never its set's LRU line) or the two lines map to
// different sets.
func (u *Unit) pairSurvives(a, b uint64) bool {
	return u.l0Cfg.Ways >= 2 || a%uint64(u.l0Cfg.Sets) != b%uint64(u.l0Cfg.Sets)
}

// touchTexel accesses texel (x, y) of level li, whose decompressed-space
// address is uncAddr, through the cache hierarchy: the L0 cache is
// addressed in decompressed space; an L0 miss fetches through the L1
// cache in compressed space; an L1 miss reads GDDR. The compressed
// address is only needed, and so only computed, on an L0 miss.
func (u *Unit) touchTexel(t *Texture, li *levelInfo, x, y int, uncAddr uint64) {
	if u.l0.Access(uncAddr, false) {
		return
	}
	if !u.l1.Access(t.compressedAddr(li, x, y), false) && u.memctl != nil {
		u.memctl.Read(mem.ClientTexture, int64(u.l1Cfg.LineBytes))
	}
}

// unorm8 maps an 8-bit unsigned-normalized channel to its float value;
// unorm8[i] is float32(i)/255 bit for bit.
var unorm8 = func() (tab [256]float32) {
	for i := range tab {
		tab[i] = float32(i) / 255
	}
	return tab
}()

// unorm converts a texel to its normalized float color.
func unorm(c RGBA) gmath.Vec4 {
	return gmath.Vec4{X: unorm8[c.R], Y: unorm8[c.G], Z: unorm8[c.B], W: unorm8[c.A]}
}

// uncompressedAddr is the L0 (decompressed-space) address of wrapped
// texel (x, y) of level li. The texture's base is scaled so distinct
// textures never alias (decompressed data is at most 8x larger than
// DXT1; 16x margin).
func (t *Texture) uncompressedAddr(li *levelInfo, x, y int) uint64 {
	return t.BaseAddr*16 + t.uncompressedOffset(li, x, y)
}

// uncompressedOffset computes the tiled 4-bytes-per-texel offset of
// wrapped texel (x, y) of level li used for L0 (decompressed) lookups:
// 4x4-texel tiles of 64 bytes. The level base (sum of 4-byte-per-texel
// level sizes) and the per-row tile count are precomputed by initLayout.
func (t *Texture) uncompressedOffset(li *levelInfo, x, y int) uint64 {
	tile := (y>>2)*li.uncTilesPerRow + x>>2
	within := (y&3)<<2 + x&3
	return li.uncBase + uint64(tile)<<6 + uint64(within)<<2
}

func floorf(x float32) float32 { return float32(math.Floor(float64(x))) }
