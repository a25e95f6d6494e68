package main

import (
	"time"

	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gpu"
	"gpuchar/internal/texture"
)

// backendTimes is the host time spent inside each kind of Backend call.
type backendTimes struct {
	execute, clear, endFrame, rt time.Duration
	draws                        int64
}

// total is the time spent inside the GPU across all calls.
func (t backendTimes) total() time.Duration { return t.execute + t.clear + t.endFrame + t.rt }

func (t backendTimes) add(o backendTimes) backendTimes {
	return backendTimes{
		execute: t.execute + o.execute, clear: t.clear + o.clear,
		endFrame: t.endFrame + o.endFrame, rt: t.rt + o.rt, draws: t.draws + o.draws,
	}
}

func (t backendTimes) sub(o backendTimes) backendTimes {
	return t.add(backendTimes{-o.execute, -o.clear, -o.endFrame, -o.rt, -o.draws})
}

// timedBackend is a gfxapi.Backend and gfxapi.MultipassBackend that
// forwards every call to a *gpu.GPU and accumulates the host time spent
// inside it, measuring the simulator from its public API boundary. It
// changes nothing the GPU computes (pinned by TestTimedBackendTransparent).
type timedBackend struct {
	g *gpu.GPU
	t backendTimes
}

var (
	_ gfxapi.Backend          = (*timedBackend)(nil)
	_ gfxapi.MultipassBackend = (*timedBackend)(nil)
)

func (b *timedBackend) Execute(dc *gfxapi.DrawCall) {
	s := time.Now()
	b.g.Execute(dc)
	b.t.execute += time.Since(s)
	b.t.draws++
}

func (b *timedBackend) Clear(op gfxapi.ClearOp) {
	s := time.Now()
	b.g.Clear(op)
	b.t.clear += time.Since(s)
}

func (b *timedBackend) EndFrame() {
	s := time.Now()
	b.g.EndFrame()
	b.t.endFrame += time.Since(s)
}

func (b *timedBackend) CreateRenderTarget(rt *gfxapi.RenderTarget) {
	s := time.Now()
	b.g.CreateRenderTarget(rt)
	b.t.rt += time.Since(s)
}

func (b *timedBackend) SetRenderTarget(rt *gfxapi.RenderTarget) {
	s := time.Now()
	b.g.SetRenderTarget(rt)
	b.t.rt += time.Since(s)
}

func (b *timedBackend) ResolveRenderTarget(rt *gfxapi.RenderTarget) []texture.RGBA {
	s := time.Now()
	pix := b.g.ResolveRenderTarget(rt)
	b.t.rt += time.Since(s)
	return pix
}
