package core

import (
	"fmt"

	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gpu"
	"gpuchar/internal/metrics"
	"gpuchar/internal/workloads"
)

// testRenderHook, when non-nil, runs at the start of every demo render.
// Tests use it to poison a specific demo with a panic and prove the
// fault isolation around it; it is never set outside tests, and tests
// set and reset it only while no render is running.
var testRenderHook func(demo string)

// APICheckpoint is the resumable state of one API-level render at a
// frame boundary: the generator state plus every frame produced so far.
// The serve layer persists it so a killed daemon can pick a job back up
// without replaying the finished frames; TestRenderAPIResume pins that
// the spliced run is bit-identical to a continuous one.
type APICheckpoint struct {
	Gen    workloads.GenState
	Frames []gfxapi.FrameStats
}

// RenderAPI renders frames of a demo against a null backend at
// 1024x768, collecting API statistics only — the equivalent of
// replaying a captured trace through the paper's statistics gatherer.
//
// After each frame onFrame (if non-nil) receives the frame index and a
// builder for the checkpoint at that boundary; a non-nil return aborts
// the render with that error. The checkpoint copies every frame so far,
// so it is built only when the callback calls ck.
//
// A non-nil start checkpoint skips its completed frames: the workload
// is set up fresh (scene content is a deterministic function of the
// profile), the generator state restored, the duplicate setup burst
// dropped, and rendering continues at frame start.Gen.FrameIdx.
func RenderAPI(prof *workloads.Profile, frames int, start *APICheckpoint,
	onFrame func(frame int, ck func() *APICheckpoint) error) (*APIResult, error) {

	if prof == nil {
		return nil, fmt.Errorf("core: nil profile")
	}
	dev := gfxapi.NewDevice(prof.API, gfxapi.NullBackend{})
	wl := workloads.New(prof, dev, 1024, 768)
	// Scale two-region demos so short runs sample both regions.
	wl.SetRegionBoundary(frames / 2)

	first := 0
	var prior []gfxapi.FrameStats
	var resume func()
	if start != nil && start.Gen.FrameIdx > 0 {
		first = start.Gen.FrameIdx
		if len(start.Frames) != first {
			return nil, fmt.Errorf("core: %s: checkpoint has %d frames, frame index %d",
				prof.Name, len(start.Frames), first)
		}
		if first > frames {
			return nil, fmt.Errorf("core: %s: checkpoint frame %d past requested %d",
				prof.Name, first, frames)
		}
		prior = start.Frames
		resume = func() {
			wl.SetGenState(start.Gen)
			// The fresh setup burst belongs to frame 0, which the
			// checkpoint already carries.
			dev.DropFrame()
		}
	}
	all := func() []gfxapi.FrameStats {
		return append(append([]gfxapi.FrameStats{}, prior...), dev.Frames()...)
	}

	var each func(int) error
	if onFrame != nil {
		ck := func() *APICheckpoint {
			return &APICheckpoint{Gen: wl.GenState(), Frames: all()}
		}
		each = func(f int) error { return onFrame(f, ck) }
	}
	if err := render(prof.Name, dev, wl, first, frames, resume, each); err != nil {
		return nil, err
	}
	return &APIResult{Prof: prof, Frames: all()}, nil
}

// MicroHooks observe one simulated render. Either may be nil.
type MicroHooks struct {
	// OnGPU registers the live GPU before the first frame; the returned
	// func (if non-nil) runs when the render ends, however it ends.
	OnGPU func(g *gpu.GPU) (done func())
	// OnFrame receives each completed frame index together with the
	// cumulative counter snapshot the GPU published at that boundary
	// (the one PublishedSnapshot serves to concurrent scrapers). A
	// non-nil return aborts the render with that error.
	OnFrame func(frame int, boundary metrics.Snapshot) error
}

// RenderMicro renders frames of a simulated demo through the GPU
// simulator under cfg (the paper's point is gpu.R520Config(1024, 768)).
// Simulated renders carry warm texture-cache state across frame
// boundaries, so unlike RenderAPI there is no mid-demo resume: the
// scheduler checkpoints simulated work at whole-demo granularity and
// uses OnFrame for frame-boundary cancellation only.
func RenderMicro(prof *workloads.Profile, frames int, cfg gpu.Config, h MicroHooks) (*MicroResult, error) {
	if prof == nil || !prof.Simulated {
		return nil, fmt.Errorf("core: profile not simulated")
	}
	g := gpu.New(cfg)
	dev := gfxapi.NewDevice(prof.API, g)
	wl := workloads.New(prof, dev, cfg.Width, cfg.Height)
	if h.OnGPU != nil {
		if done := h.OnGPU(g); done != nil {
			defer done()
		}
	}
	var each func(int) error
	if h.OnFrame != nil {
		each = func(f int) error {
			boundary, _ := g.PublishedSnapshot()
			return h.OnFrame(f, boundary)
		}
	}
	if err := render(prof.Name, dev, wl, 0, frames, nil, each); err != nil {
		return nil, err
	}
	return MicroResultFromGPU(prof, g, cfg), nil
}

// render drives frames [first, frames) of a set-up workload. The set-up
// (plus resume, when non-nil) and every frame run under guard; onFrame
// runs between frames, outside it, and its error aborts the render.
func render(name string, dev *gfxapi.Device, wl *workloads.Workload,
	first, frames int, resume func(), onFrame func(frame int) error) error {

	err := guard(name, dev, func() error {
		if testRenderHook != nil {
			testRenderHook(name)
		}
		if err := wl.Setup(); err != nil {
			return fmt.Errorf("core: %s: %w", name, err)
		}
		if resume != nil {
			resume()
		}
		return nil
	})
	if err != nil {
		return err
	}
	frame := func() error { wl.RenderFrame(); return nil }
	for f := first; f < frames; f++ {
		if err := guard(name, dev, frame); err != nil {
			return err
		}
		if onFrame != nil {
			if err := onFrame(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// guard runs one step of a render, converting a panic escaping the
// workload generator or the pipeline backend into an error naming the
// demo and the API-stream position (frames completed, batches into the
// current frame) where it happened, so a poisoned demo is locatable
// without a debugger and cannot kill the fan-out hosting the other
// eleven titles.
func guard(name string, dev *gfxapi.Device, step func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: %s: panic at frame %d, batch %d: %v",
				name, len(dev.Frames()), dev.CurrentFrame().Batches, rec)
		}
	}()
	return step()
}
