package texture

import "fmt"

// ProcFunc procedurally generates the texel at (x, y) of mip level lv.
// Procedural textures avoid storing texel arrays for the synthetic game
// content while keeping addressing (and therefore cache and memory
// traffic) exact.
type ProcFunc func(x, y, lv int) RGBA

// Texture is a mipmapped 2D texture resident in simulated GPU memory.
// Content comes either from encoded per-level Data (real storage,
// decoded on fetch) or from a Proc function; both use the same tiled
// compressed-space address layout for traffic accounting.
type Texture struct {
	Name   string
	Format Format
	Width  int
	Height int
	// BaseAddr is the GPU virtual address of mip level 0. Assigned by
	// the device when the texture is created.
	BaseAddr uint64

	levels []levelInfo
	data   [][]byte // per-level encoded bytes; nil for procedural content
	proc   ProcFunc

	// Precomputed addressing constants (see initLayout). Every dimension
	// involved — level sizes, block dims, block bytes, tile shapes — is a
	// power of two, so the per-fetch divisions and modulos of the tiled
	// address computation reduce to shifts and masks resolved at texture
	// creation time.
	bdShift        uint // log2(format block dim)
	twShift        uint // log2(tile width in blocks)
	thShift        uint // log2(tile height in blocks)
	bbShift        uint // log2(format block bytes)
	tileSpanShift  uint // log2(bytes per tile) — 64 for all formats
	twMask, thMask int
}

type levelInfo struct {
	w, h   int
	offset uint64 // byte offset from BaseAddr
	bytes  int

	// Precomputed addressing constants (see initLayout).
	wMask, hMask   int    // wrap masks (w-1, h-1)
	tilesPerRow    int    // compressed-space tiles per block row
	uncBase        uint64 // level base in decompressed (4 B/texel) space
	uncTilesPerRow int    // decompressed-space 4x4 tiles per row
}

// New creates a procedural mipmapped texture. Width and height must be
// positive powers of two.
func New(name string, format Format, w, h int, proc ProcFunc) (*Texture, error) {
	if w <= 0 || h <= 0 || w&(w-1) != 0 || h&(h-1) != 0 {
		return nil, fmt.Errorf("texture %q: dimensions %dx%d must be powers of two", name, w, h)
	}
	t := &Texture{Name: name, Format: format, Width: w, Height: h, proc: proc}
	offset := uint64(0)
	for lw, lh := w, h; ; lw, lh = maxInt(lw/2, 1), maxInt(lh/2, 1) {
		n := format.LevelBytes(lw, lh)
		t.levels = append(t.levels, levelInfo{w: lw, h: lh, offset: offset, bytes: n})
		offset += uint64(n)
		if lw == 1 && lh == 1 {
			break
		}
	}
	t.initLayout()
	return t, nil
}

// initLayout precomputes the shift/mask form of the tiled address
// layout. It changes no address: blockOffset and uncompressedOffset
// produce byte-identical results to the division-based formulation they
// replace (pinned by TestAddressLayoutMatchesReference).
func (t *Texture) initLayout() {
	f := t.Format
	bd := f.BlockDim()
	bb := f.BlockBytes()
	lineBlocks := 64 / bb
	if lineBlocks < 1 {
		lineBlocks = 1
	}
	tw, th := tileShape(lineBlocks)
	t.bdShift = log2u(bd)
	t.twShift, t.thShift = log2u(tw), log2u(th)
	t.twMask, t.thMask = tw-1, th-1
	t.bbShift = log2u(bb)
	t.tileSpanShift = log2u(lineBlocks * bb)
	var uncBase uint64
	for i := range t.levels {
		li := &t.levels[i]
		li.wMask, li.hMask = li.w-1, li.h-1
		blocksW := (li.w + bd - 1) / bd
		li.tilesPerRow = (blocksW + tw - 1) / tw
		li.uncBase = uncBase
		uncBase += uint64(li.w*li.h) * 4
		li.uncTilesPerRow = (li.w + 3) / 4
	}
}

// log2u returns log2(v) for power-of-two v.
func log2u(v int) uint {
	s := uint(0)
	for 1<<s < v {
		s++
	}
	return s
}

// MustNew is New for statically valid dimensions; it panics on error.
func MustNew(name string, format Format, w, h int, proc ProcFunc) *Texture {
	t, err := New(name, format, w, h, proc)
	if err != nil {
		panic(err)
	}
	return t
}

// FromRGBA creates a texture with real storage: the base image is
// encoded into the requested format and a full mip chain is built by
// box-filtering. img must hold w*h texels in row-major order.
func FromRGBA(name string, format Format, w, h int, img []RGBA) (*Texture, error) {
	if len(img) != w*h {
		return nil, fmt.Errorf("texture %q: image has %d texels, want %d", name, len(img), w*h)
	}
	t, err := New(name, format, w, h, nil)
	if err != nil {
		return nil, err
	}
	t.data = make([][]byte, len(t.levels))
	cur := img
	cw, ch := w, h
	for lv := range t.levels {
		t.data[lv] = encodeLevel(format, cw, ch, cur)
		if lv < len(t.levels)-1 {
			cur, cw, ch = downsample(cur, cw, ch)
		}
	}
	return t, nil
}

// UpdateRGBA replaces the texture's content with img, re-encoding the
// full mip chain in place. The handle, dimensions, layout and GPU
// address are untouched, so bound samplers and recorded traces stay
// valid — the resolve path of render-to-texture depends on exactly this
// stability. img must hold Width*Height texels in row-major order.
func (t *Texture) UpdateRGBA(img []RGBA) error {
	if len(img) != t.Width*t.Height {
		return fmt.Errorf("texture %q: image has %d texels, want %d",
			t.Name, len(img), t.Width*t.Height)
	}
	if t.data == nil {
		t.data = make([][]byte, len(t.levels))
	}
	t.proc = nil
	cur := img
	cw, ch := t.Width, t.Height
	for lv := range t.levels {
		t.data[lv] = encodeLevel(t.Format, cw, ch, cur)
		if lv < len(t.levels)-1 {
			cur, cw, ch = downsample(cur, cw, ch)
		}
	}
	return nil
}

// Levels returns the number of mip levels.
func (t *Texture) Levels() int { return len(t.levels) }

// LevelSize returns the dimensions of mip level lv (clamped).
func (t *Texture) LevelSize(lv int) (w, h int) {
	lv = clampInt(lv, 0, len(t.levels)-1)
	return t.levels[lv].w, t.levels[lv].h
}

// TotalBytes returns the storage footprint of the full mip chain.
func (t *Texture) TotalBytes() int {
	n := 0
	for _, l := range t.levels {
		n += l.bytes
	}
	return n
}

// Texel returns the texel value at integer coordinates (x, y) of level
// lv, with wrap addressing, together with the GPU memory address of the
// block that holds it (used by the texture cache).
func (t *Texture) Texel(x, y, lv int) (RGBA, uint64) {
	lv = clampInt(lv, 0, len(t.levels)-1)
	li := &t.levels[lv]
	x &= li.wMask // wrap (dimensions are powers of two)
	y &= li.hMask
	return t.texel(lv, x, y), t.compressedAddr(li, x, y)
}

// texel returns the content of texel (x, y) of level lv; the level must
// be in range and the coordinates already wrapped.
func (t *Texture) texel(lv, x, y int) RGBA {
	if t.data != nil {
		return t.decodeTexel(lv, x, y)
	}
	if t.proc != nil {
		return t.proc(x, y, lv)
	}
	return RGBA{}
}

// compressedAddr is the GPU memory address of the block holding
// wrapped texel (x, y) of level li: the L1 (compressed-space) address.
func (t *Texture) compressedAddr(li *levelInfo, x, y int) uint64 {
	return t.BaseAddr + li.offset + t.blockOffset(li, x, y)
}

// blockOffset computes the tiled byte offset of the block containing
// texel (x, y) within a level. Blocks are grouped into cache-line-sized
// 2D tiles so that a 64-byte line maps to a compact screen-space
// footprint, as in real GPU texture layouts. All factors are powers of
// two, so the whole computation is shifts and masks over the constants
// initLayout resolved at creation time.
func (t *Texture) blockOffset(li *levelInfo, x, y int) uint64 {
	bx, by := x>>t.bdShift, y>>t.bdShift
	tile := (by>>t.thShift)*li.tilesPerRow + bx>>t.twShift
	within := (by&t.thMask)<<t.twShift + bx&t.twMask
	return uint64(tile)<<t.tileSpanShift + uint64(within)<<t.bbShift
}

// tileShape factors lineBlocks into a near-square power-of-two tile.
func tileShape(lineBlocks int) (tw, th int) {
	tw, th = 1, 1
	for tw*th < lineBlocks {
		if tw <= th {
			tw *= 2
		} else {
			th *= 2
		}
	}
	return tw, th
}

func (t *Texture) decodeTexel(lv, x, y int) RGBA {
	li := &t.levels[lv]
	data := t.data[lv]
	f := t.Format
	switch f {
	case FormatRGBA8:
		i := (y*li.w + x) * 4
		return RGBA{data[i], data[i+1], data[i+2], data[i+3]}
	case FormatL8:
		v := data[y*li.w+x]
		return RGBA{v, v, v, 255}
	default:
		bd := f.BlockDim()
		blocksW := (li.w + bd - 1) / bd
		bi := ((y/bd)*blocksW + x/bd) * f.BlockBytes()
		var texels [16]RGBA
		switch f {
		case FormatDXT1:
			DecodeDXT1Block(data[bi:bi+8], &texels)
		case FormatDXT3:
			DecodeDXT3Block(data[bi:bi+16], &texels)
		default:
			DecodeDXT5Block(data[bi:bi+16], &texels)
		}
		return texels[(y%bd)*bd+(x%bd)]
	}
}

// encodeLevel packs an RGBA image into the storage format. Uncompressed
// levels are stored row-major; compressed levels are stored block
// row-major (decode uses the same order).
func encodeLevel(f Format, w, h int, img []RGBA) []byte {
	switch f {
	case FormatRGBA8:
		out := make([]byte, w*h*4)
		for i, c := range img {
			out[i*4], out[i*4+1], out[i*4+2], out[i*4+3] = c.R, c.G, c.B, c.A
		}
		return out
	case FormatL8:
		out := make([]byte, w*h)
		for i, c := range img {
			out[i] = c.R
		}
		return out
	}
	bd := f.BlockDim()
	blocksW := (w + bd - 1) / bd
	blocksH := (h + bd - 1) / bd
	out := make([]byte, blocksW*blocksH*f.BlockBytes())
	var texels [16]RGBA
	for by := 0; by < blocksH; by++ {
		for bx := 0; bx < blocksW; bx++ {
			for ty := 0; ty < 4; ty++ {
				for tx := 0; tx < 4; tx++ {
					x, y := bx*4+tx, by*4+ty
					if x >= w {
						x = w - 1
					}
					if y >= h {
						y = h - 1
					}
					texels[ty*4+tx] = img[y*w+x]
				}
			}
			off := (by*blocksW + bx) * f.BlockBytes()
			switch f {
			case FormatDXT1:
				var b [8]byte
				EncodeDXT1Block(&texels, &b)
				copy(out[off:], b[:])
			case FormatDXT3:
				var b [16]byte
				EncodeDXT3Block(&texels, &b)
				copy(out[off:], b[:])
			default:
				var b [16]byte
				EncodeDXT5Block(&texels, &b)
				copy(out[off:], b[:])
			}
		}
	}
	return out
}

// downsample box-filters an image to the next mip level.
func downsample(img []RGBA, w, h int) ([]RGBA, int, int) {
	nw, nh := maxInt(w/2, 1), maxInt(h/2, 1)
	out := make([]RGBA, nw*nh)
	for y := 0; y < nh; y++ {
		for x := 0; x < nw; x++ {
			x0, y0 := x*2, y*2
			x1, y1 := minInt(x0+1, w-1), minInt(y0+1, h-1)
			c00 := img[y0*w+x0]
			c10 := img[y0*w+x1]
			c01 := img[y1*w+x0]
			c11 := img[y1*w+x1]
			out[y*nw+x] = RGBA{
				R: uint8((int(c00.R) + int(c10.R) + int(c01.R) + int(c11.R)) / 4),
				G: uint8((int(c00.G) + int(c10.G) + int(c01.G) + int(c11.G)) / 4),
				B: uint8((int(c00.B) + int(c10.B) + int(c01.B) + int(c11.B)) / 4),
				A: uint8((int(c00.A) + int(c10.A) + int(c01.A) + int(c11.A)) / 4),
			}
		}
	}
	return out, nw, nh
}

// Checker returns a procedural checkerboard content function with the
// given cell size in texels.
func Checker(cell int, a, b RGBA) ProcFunc {
	if cell < 1 {
		cell = 1
	}
	return func(x, y, lv int) RGBA {
		c := cell >> lv
		if c < 1 {
			c = 1
		}
		if (x/c+y/c)%2 == 0 {
			return a
		}
		return b
	}
}

// Noise returns a deterministic hash-noise content function. alphaCut in
// [0,256) controls the fraction of texels with alpha below the cut, used
// by alpha-tested materials: a texel's alpha is uniform in [0,256).
func Noise(seed uint32) ProcFunc {
	return func(x, y, lv int) RGBA {
		h := hash3(uint32(x), uint32(y), seed+uint32(lv)*0x9E3779B9)
		return RGBA{
			R: uint8(h), G: uint8(h >> 8), B: uint8(h >> 16), A: uint8(h >> 24),
		}
	}
}

// Flat returns a constant-color content function.
func Flat(c RGBA) ProcFunc {
	return func(x, y, lv int) RGBA { return c }
}

// BlockNoise returns hash noise that is constant over blockDim x
// blockDim texel blocks. Because filtering footprints rarely straddle
// block boundaries, the filtered alpha distribution stays close to the
// raw per-block uniform distribution — which makes alpha-test kill
// fractions controllable: P(alpha < ref) ~ ref/256.
func BlockNoise(seed uint32, blockDim int) ProcFunc {
	if blockDim < 1 {
		blockDim = 1
	}
	return func(x, y, lv int) RGBA {
		b := blockDim >> lv
		if b < 1 {
			b = 1
		}
		h := hash3(uint32(x/b), uint32(y/b), seed+uint32(lv)*0x9E3779B9)
		return RGBA{
			R: uint8(h), G: uint8(h >> 8), B: uint8(h >> 16), A: uint8(h >> 24),
		}
	}
}

func hash3(x, y, z uint32) uint32 {
	h := x*0x8da6b343 + y*0xd8163841 + z*0xcb1ab31f
	h ^= h >> 13
	h *= 0x85ebca6b
	h ^= h >> 16
	return h
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

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
