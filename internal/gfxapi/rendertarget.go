package gfxapi

import (
	"fmt"

	"gpuchar/internal/texture"
)

// RenderTarget is an off-screen color + depth surface a device can
// redirect draws into and later resolve into a sampleable texture — the
// render-to-texture primitive behind deferred shading, shadow maps and
// post-processed particle passes. The paper's 2006 corpus never leaves
// the backbuffer; these targets are what opens the multi-pass workload
// families.
type RenderTarget struct {
	// Name labels the pass in per-pass metrics ("gbuffer", "shadow0").
	Name string
	// W, H are the surface dimensions. Both must be powers of two so the
	// resolve texture keeps the standard mip chain layout.
	W, H int
	// BaseAddr and ZBaseAddr are the GPU virtual addresses of the color
	// and depth/stencil planes, allocated by the device like any other
	// resource so render-target traffic is addressable in the caches.
	BaseAddr  uint64
	ZBaseAddr uint64
	// Tex is the resolve texture. ResolveToTexture re-encodes the
	// surface's pixels into it in place, so the handle (and its GPU
	// address) stays stable across frames — which is what makes traces
	// and kill/restart resumes byte-identical.
	Tex *texture.Texture
}

// MultipassBackend is the optional Backend capability for
// render-to-texture. The GPU simulator implements it; NullBackend does
// not, in which case the device resolves a deterministic placeholder so
// API-level runs and replays stay reproducible.
type MultipassBackend interface {
	// CreateRenderTarget materializes backing surfaces for rt.
	CreateRenderTarget(rt *RenderTarget)
	// SetRenderTarget redirects subsequent draws and clears into rt
	// (nil selects the backbuffer).
	SetRenderTarget(rt *RenderTarget)
	// ResolveRenderTarget flushes rt's caches and returns its pixels
	// quantized to 8-bit RGBA, row-major, W*H texels.
	ResolveRenderTarget(rt *RenderTarget) []texture.RGBA
}

// CreateRenderTarget allocates an off-screen surface and its resolve
// texture. Creation is a state call, like every other resource creation.
// Dimensions must be positive powers of two.
func (d *Device) CreateRenderTarget(name string, w, h int) (*RenderTarget, error) {
	if w <= 0 || h <= 0 || w&(w-1) != 0 || h&(h-1) != 0 {
		return nil, fmt.Errorf("gfxapi: render target %q: dimensions %dx%d must be powers of two", name, w, h)
	}
	rt := &RenderTarget{Name: name, W: w, H: h}
	rt.BaseAddr = d.alloc(w * h * 4)  // RGBA8 color plane
	rt.ZBaseAddr = d.alloc(w * h * 5) // 4 B depth + 1 B stencil
	tex, err := texture.FromRGBA(name+"/resolve", texture.FormatRGBA8, w, h,
		make([]texture.RGBA, w*h))
	if err != nil {
		return nil, fmt.Errorf("gfxapi: render target %q: %w", name, err)
	}
	tex.BaseAddr = d.alloc(tex.TotalBytes())
	rt.Tex = tex
	id := d.assignID(rt)
	d.rts[id] = rt
	texID := d.assignID(tex)
	d.texs[texID] = tex
	d.frame.StateCalls++
	if d.recorder != nil {
		d.recorder.Record(Command{
			Op: OpCreateRT, ID: id, ID2: texID,
			RTName: name, RTW: w, RTH: h,
		})
	}
	if mp, ok := d.backend.(MultipassBackend); ok {
		mp.CreateRenderTarget(rt)
	}
	return rt, nil
}

// SetRenderTarget redirects subsequent draws and clears into rt; nil
// restores the backbuffer. One state call.
func (d *Device) SetRenderTarget(rt *RenderTarget) {
	d.curRT = rt
	if d.stateCall() {
		var id uint32
		if rt != nil {
			id = d.ids[rt]
		}
		d.recorder.Record(Command{Op: OpSetRT, ID: id})
	}
	if mp, ok := d.backend.(MultipassBackend); ok {
		mp.SetRenderTarget(rt)
	}
}

// CurrentRenderTarget returns the bound target (nil for the backbuffer).
func (d *Device) CurrentRenderTarget() *RenderTarget { return d.curRT }

// ResolveToTexture re-encodes rt's current pixels into its resolve
// texture, in place, so the texture handle every sampler holds stays
// valid. On a backend without multipass support the texture receives a
// deterministic placeholder (API-level statistics never depend on texel
// content). One state call.
func (d *Device) ResolveToTexture(rt *RenderTarget) error {
	if rt == nil || rt.Tex == nil {
		return fmt.Errorf("gfxapi: resolve of nil render target")
	}
	var pix []texture.RGBA
	if mp, ok := d.backend.(MultipassBackend); ok {
		pix = mp.ResolveRenderTarget(rt)
	}
	if pix == nil {
		pix = placeholderResolve(rt, d.ids[rt])
	}
	if err := rt.Tex.UpdateRGBA(pix); err != nil {
		return fmt.Errorf("gfxapi: resolve %q: %w", rt.Name, err)
	}
	if d.stateCall() {
		d.recorder.Record(Command{Op: OpResolveTex, ID: d.ids[rt]})
	}
	return nil
}

// placeholderResolve fills the resolve texture with a flat color derived
// from the target's id — stable content for backends that discard GPU
// work, so replays of API-only traces are byte-for-byte reproducible.
func placeholderResolve(rt *RenderTarget, id uint32) []texture.RGBA {
	c := texture.RGBA{R: uint8(id), G: 0x80, B: uint8(id >> 8), A: 255}
	pix := make([]texture.RGBA, rt.W*rt.H)
	for i := range pix {
		pix[i] = c
	}
	return pix
}
