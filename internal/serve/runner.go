package serve

import (
	"bytes"
	"context"
	"io"

	"gpuchar/internal/core"
	"gpuchar/internal/explorer"
	"gpuchar/internal/fault"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/metrics"
	"gpuchar/internal/trace"
)

// runJob executes one job to its metrics JSON document. The flow for an
// experiment sweep: build the job's single-worker core.Context, render
// every demo the experiments demand through core.RenderAPI and
// core.RenderMicro (splicing in whatever the job's checkpoint already
// holds), seed the context with the results, then run the experiments
// and export — byte-identical to a one-shot `characterize -json` run,
// because the export reads the same seeded cache in the same registry
// order.
func (s *Service) runJob(ctx context.Context, j *Job) ([]byte, error) {
	if len(j.Spec.Trace) > 0 {
		return s.runTraceJob(ctx, j.Spec)
	}
	spec := j.Spec
	cctx, err := spec.NewContext()
	if err != nil {
		return nil, err
	}
	api, micro, err := core.NeededDemos(spec.Experiments)
	if err != nil {
		return nil, err
	}
	ck, err := s.spool.loadCheckpoint(j.ID, j.key)
	if err != nil {
		// An unreadable checkpoint never fails the job: start clean. The
		// read failure still counts toward degraded-mode health.
		s.noteSpool(err)
		ck = nil
	}
	if ck == nil {
		ck = newCheckpoint(j.ID, j.key)
	} else if len(ck.API)+len(ck.Sim) > 0 || ck.Cur != nil {
		s.noteResumed(j)
	}

	for _, name := range api {
		if done, err := s.seedAPIFromCheckpoint(cctx, j, ck, name); err != nil {
			return nil, err
		} else if done {
			continue
		}
		if err := s.runAPIDemo(ctx, j, ck, cctx, name); err != nil {
			return nil, err
		}
	}
	for _, name := range micro {
		if done, err := s.seedSimFromCheckpoint(cctx, j, ck, name); err != nil {
			return nil, err
		} else if done {
			continue
		}
		if err := s.runSimDemo(ctx, j, ck, cctx, name); err != nil {
			return nil, err
		}
	}

	if _, err := core.RunExperiments(cctx, spec.Experiments); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := cctx.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// seedAPIFromCheckpoint installs a completed API render from the
// checkpoint, reporting whether the demo is fully covered. A corrupt or
// wrong-length entry is dropped and re-rendered.
func (s *Service) seedAPIFromCheckpoint(cctx *core.Context, j *Job, ck *checkpointFile, name string) (bool, error) {
	raw, ok := ck.API[name]
	if !ok {
		return false, nil
	}
	frames, err := decodeAPIFrames(raw)
	if err != nil || len(frames) != j.Spec.APIFrames {
		delete(ck.API, name)
		return false, nil
	}
	prof, err := profileFor(name)
	if err != nil {
		return false, err
	}
	cctx.SeedAPI(name, &core.APIResult{Prof: prof, Frames: frames})
	s.addFrames(j, len(frames), len(frames))
	return true, nil
}

// runAPIDemo renders one API demo from wherever its checkpoint left
// off, checkpointing every CheckpointEvery frames and at cancellation,
// then seeds the context.
func (s *Service) runAPIDemo(ctx context.Context, j *Job, ck *checkpointFile,
	cctx *core.Context, name string) error {

	prof, err := profileFor(name)
	if err != nil {
		return err
	}
	var start *core.APICheckpoint
	if ck.Cur != nil && ck.Cur.Demo == name {
		if frames, err := decodeAPIFrames(ck.Cur.Frames); err == nil &&
			len(frames) == ck.Cur.Gen.FrameIdx && len(frames) <= j.Spec.APIFrames {
			start = &core.APICheckpoint{Gen: ck.Cur.Gen, Frames: frames}
			s.addFrames(j, len(frames), len(frames))
		}
	}
	ck.Cur = nil

	sinceCkpt := 0
	res, err := core.RenderAPI(prof, j.Spec.APIFrames, start, func(frame int, cur func() *core.APICheckpoint) error {
		s.addFrames(j, 1, 0)
		sinceCkpt++
		if cerr := ctx.Err(); cerr != nil {
			// Final checkpoint exactly at the kill point: the resumed run
			// loses zero frames. Best effort — the cancellation wins.
			_ = s.persistCur(ck, name, cur())
			return cerr
		}
		if s.cfg.CheckpointEvery > 0 && sinceCkpt >= s.cfg.CheckpointEvery &&
			frame+1 < j.Spec.APIFrames {
			sinceCkpt = 0
			// Checkpoints are best effort: a failed write costs resume
			// coverage, not the render. It feeds degraded-mode health.
			s.noteSpool(s.persistCur(ck, name, cur()))
		}
		return nil
	})
	if err != nil {
		return err
	}
	raw, err := encodeAPIFrames(res.Frames)
	if err != nil {
		return err
	}
	ck.API[name] = raw
	ck.Cur = nil
	s.noteSpool(s.spool.writeCheckpoint(ck))
	cctx.SeedAPI(name, res)
	return nil
}

// persistCur writes the in-progress render's frame-boundary state.
func (s *Service) persistCur(ck *checkpointFile, demo string, c *core.APICheckpoint) error {
	raw, err := encodeAPIFrames(c.Frames)
	if err != nil {
		return err
	}
	ck.Cur = &curCheckpoint{Demo: demo, Gen: c.Gen, Frames: raw}
	return s.spool.writeCheckpoint(ck)
}

// seedSimFromCheckpoint installs a completed simulated render from the
// checkpoint (simulated demos are stored whole or not at all).
func (s *Service) seedSimFromCheckpoint(cctx *core.Context, j *Job, ck *checkpointFile, name string) (bool, error) {
	raw, ok := ck.Sim[name]
	if !ok {
		return false, nil
	}
	frames, err := decodeSimFrames(raw)
	if err != nil || len(frames) != j.Spec.SimFrames {
		delete(ck.Sim, name)
		return false, nil
	}
	prof, err := profileFor(name)
	if err != nil {
		return false, err
	}
	// The effective resolution may differ from the spec's when the
	// hardware variant pins one (the res-* family).
	cfg := cctx.GPUConfig()
	r := &core.MicroResult{Prof: prof, W: cfg.Width, H: cfg.Height, Frames: frames}
	for _, f := range frames {
		r.Agg.Accumulate(f)
	}
	cctx.SeedMicro(name, r)
	s.addFrames(j, len(frames), len(frames))
	return true, nil
}

// runSimDemo simulates one demo with frame-boundary cancellation.
// Warm texture-cache state spans simulated frames, so there is no
// mid-demo checkpoint — the demo lands in the checkpoint only when
// complete, and a cancellation re-simulates it from scratch.
func (s *Service) runSimDemo(ctx context.Context, j *Job, ck *checkpointFile,
	cctx *core.Context, name string) error {

	prof, err := profileFor(name)
	if err != nil {
		return err
	}
	// Each frame boundary streams its counter delta (published snapshot
	// vs the previous boundary) to the explorer's SSE hub.
	var prev metrics.Snapshot
	res, err := core.RenderMicro(prof, j.Spec.SimFrames, cctx.GPUConfig(), core.MicroHooks{
		OnFrame: func(frame int, boundary metrics.Snapshot) error {
			s.addFrames(j, 1, 0)
			if s.cfg.Explorer != nil {
				s.cfg.Explorer.Publish(explorer.FrameEvent(j.ID, name, frame+1, boundary.Diff(prev)))
				prev = boundary
			}
			return ctx.Err()
		},
	})
	if err != nil {
		return err
	}
	raw, err := encodeSimFrames(res.Frames)
	if err != nil {
		return err
	}
	ck.Sim[name] = raw
	s.noteSpool(s.spool.writeCheckpoint(ck))
	cctx.SeedMicro(name, res)
	return nil
}

// runTraceJob replays an uploaded trace against a null backend and
// exports the API-level statistics. Cancellation threads through the
// reader, so a huge stream aborts promptly; the same reader is the
// trace_read injection point (bit flips and truncation must surface as
// the trace package's typed format errors, never a wrong result).
func (s *Service) runTraceJob(ctx context.Context, spec JobSpec) ([]byte, error) {
	var src io.Reader = &ctxReader{ctx: ctx, r: bytes.NewReader(spec.Trace)}
	src = fault.WrapReader(src, s.inj, fault.TraceRead)
	rd, err := trace.NewReader(src)
	if err != nil {
		return nil, err
	}
	dev := gfxapi.NewDevice(rd.API(), gfxapi.NullBackend{})
	p := trace.NewPlayer(dev)
	if _, err := p.Play(rd); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := metrics.WriteJSON(&buf, core.APISnapshotsFor(spec.TraceName, dev.Frames())); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ctxReader aborts reads once its context is done.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}
