package texture

import "testing"

// refBlockOffset is the original division-based tiled-address
// computation, kept as the oracle for the shift/mask form initLayout
// precomputes.
func refBlockOffset(t *Texture, li *levelInfo, x, y int) uint64 {
	f := t.Format
	bd := f.BlockDim()
	bx, by := x/bd, y/bd
	blocksW := (li.w + bd - 1) / bd
	lineBlocks := 64 / f.BlockBytes()
	if lineBlocks < 1 {
		lineBlocks = 1
	}
	tw, th := tileShape(lineBlocks)
	tilesPerRow := (blocksW + tw - 1) / tw
	tile := (by/th)*tilesPerRow + bx/tw
	within := (by%th)*tw + bx%tw
	return uint64((tile*lineBlocks + within) * f.BlockBytes())
}

// refUncompressedOffset is the original per-fetch level-walk form of the
// decompressed-space address.
func refUncompressedOffset(t *Texture, x, y, lv int) uint64 {
	lv = clampInt(lv, 0, len(t.levels)-1)
	li := &t.levels[lv]
	x &= li.w - 1
	y &= li.h - 1
	var base uint64
	for i := 0; i < lv; i++ {
		base += uint64(t.levels[i].w*t.levels[i].h) * 4
	}
	tilesPerRow := (li.w + 3) / 4
	tile := (y/4)*tilesPerRow + x/4
	within := (y%4)*4 + x%4
	return base + uint64(tile*64+within*4)
}

// TestAddressLayoutMatchesReference sweeps every texel of every mip
// level across all formats (including non-square shapes, where the mip
// chain clamps one axis to 1 early) and demands the precomputed
// shift/mask addressing match the division-based reference exactly.
func TestAddressLayoutMatchesReference(t *testing.T) {
	shapes := []struct{ w, h int }{
		{64, 64}, {128, 32}, {8, 256}, {1, 1}, {4, 4},
	}
	formats := []Format{FormatRGBA8, FormatL8, FormatDXT1, FormatDXT3, FormatDXT5}
	for _, f := range formats {
		for _, sh := range shapes {
			tex := MustNew("addr", f, sh.w, sh.h, Flat(RGBA{}))
			for lv := range tex.levels {
				li := &tex.levels[lv]
				for y := 0; y < li.h; y++ {
					for x := 0; x < li.w; x++ {
						if got, want := tex.blockOffset(li, x, y), refBlockOffset(tex, li, x, y); got != want {
							t.Fatalf("%v %dx%d lv%d (%d,%d): blockOffset = %d, reference %d",
								f, sh.w, sh.h, lv, x, y, got, want)
						}
						if got, want := tex.uncompressedOffset(li, x, y), refUncompressedOffset(tex, x, y, lv); got != want {
							t.Fatalf("%v %dx%d lv%d (%d,%d): uncompressedOffset = %d, reference %d",
								f, sh.w, sh.h, lv, x, y, got, want)
						}
					}
				}
				// Out-of-range coordinates must wrap identically too.
				for _, xy := range [][2]int{{-1, -1}, {li.w, li.h}, {li.w*3 + 1, li.h*5 + 2}} {
					x, y := xy[0]&li.wMask, xy[1]&li.hMask
					if got, want := tex.blockOffset(li, x, y), refBlockOffset(tex, li, x, y); got != want {
						t.Fatalf("%v lv%d wrap (%d,%d): blockOffset = %d, reference %d",
							f, lv, x, y, got, want)
					}
					if got, want := tex.uncompressedOffset(li, x, y), refUncompressedOffset(tex, xy[0], xy[1], lv); got != want {
						t.Fatalf("%v lv%d wrap (%d,%d): uncompressedOffset = %d, reference %d",
							f, lv, xy[0], xy[1], got, want)
					}
				}
			}
		}
	}
}
