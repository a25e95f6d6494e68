package core

import (
	"errors"
	"testing"

	"gpuchar/internal/gpu"
	"gpuchar/internal/metrics"
	"gpuchar/internal/workloads"
)

// TestRenderAPIProgressOnly pins that the checkpoint builder is lazy: a
// callback that never calls it (Context.API's progress feed) adds no
// per-frame allocation over a render with no callback at all, while one
// that builds every boundary's checkpoint allocates at least once per
// frame — and all three renders produce the same frames.
func TestRenderAPIProgressOnly(t *testing.T) {
	prof := workloads.ByName("Doom3/trdemo2")
	const frames = 20
	var plain, progress, checkpointed *APIResult
	var calls int
	allocs := func(res **APIResult, onFrame func(int, func() *APICheckpoint) error) float64 {
		return testing.AllocsPerRun(2, func() {
			r, err := RenderAPI(prof, frames, nil, onFrame)
			if err != nil {
				t.Fatal(err)
			}
			*res = r
		})
	}
	base := allocs(&plain, nil)
	lazy := allocs(&progress, func(int, func() *APICheckpoint) error {
		calls++
		return nil
	})
	eager := allocs(&checkpointed, func(f int, ck func() *APICheckpoint) error {
		if c := ck(); len(c.Frames) != f+1 || c.Gen.FrameIdx != f+1 {
			t.Fatalf("frame %d: checkpoint has %d frames, index %d", f, len(c.Frames), c.Gen.FrameIdx)
		}
		return nil
	})
	if calls != 3*frames {
		t.Errorf("progress callback ran %d times, want %d", calls, 3*frames)
	}
	if lazy-base >= frames {
		t.Errorf("progress-only render allocates %.0f more than a plain one; the checkpoint builder ran", lazy-base)
	}
	if eager-base < frames {
		t.Errorf("checkpointing render allocates only %.0f more than a plain one; the measure cannot see the builder", eager-base)
	}
	for _, got := range []*APIResult{progress, checkpointed} {
		if len(got.Frames) != frames {
			t.Fatalf("got %d frames, want %d", len(got.Frames), frames)
		}
		for i := range plain.Frames {
			if got.Frames[i] != plain.Frames[i] {
				t.Errorf("frame %d differs", i)
			}
		}
	}
}

// TestRenderAPIResume captures the checkpoint at every frame boundary
// k of a continuous render, restarts from each and checks the spliced
// result is bit-identical to the continuous run; a callback error
// aborts the render with that error.
func TestRenderAPIResume(t *testing.T) {
	const total = 10
	for _, name := range []string{"UT2004/Primeval", "Quake4/demo4", "Oblivion/Anvil Castle"} {
		t.Run(name, func(t *testing.T) {
			prof := workloads.ByName(name)
			if prof == nil {
				t.Fatalf("unknown demo %q", name)
			}
			var cks []*APICheckpoint
			want, err := RenderAPI(prof, total, nil, func(_ int, ck func() *APICheckpoint) error {
				cks = append(cks, ck())
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			for k, ck := range cks {
				if ck.Gen.FrameIdx != k+1 || len(ck.Frames) != k+1 {
					t.Fatalf("boundary %d: checkpoint index %d, %d frames", k+1, ck.Gen.FrameIdx, len(ck.Frames))
				}
				got, err := RenderAPI(prof, total, ck, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Frames) != total {
					t.Fatalf("resumed at %d: %d frames, want %d", k+1, len(got.Frames), total)
				}
				for i := range want.Frames {
					if got.Frames[i] != want.Frames[i] {
						t.Errorf("resumed at %d: frame %d differs:\n got %+v\nwant %+v",
							k+1, i, got.Frames[i], want.Frames[i])
					}
				}
			}

			stop := errors.New("stop")
			var last int
			res, err := RenderAPI(prof, total, nil, func(f int, _ func() *APICheckpoint) error {
				last = f
				if f == total/2 {
					return stop
				}
				return nil
			})
			if !errors.Is(err, stop) || res != nil {
				t.Fatalf("got %v, %v; want the callback's abort error", res, err)
			}
			if last != total/2 {
				t.Errorf("render continued to frame %d after the abort at %d", last, total/2)
			}
		})
	}
}

// TestRenderAPIRejectsBadCheckpoint pins the validation errors.
func TestRenderAPIRejectsBadCheckpoint(t *testing.T) {
	prof := workloads.ByName("Doom3/trdemo2")
	bad := &APICheckpoint{Gen: workloads.GenState{FrameIdx: 3}} // 3 frames claimed, 0 carried
	if _, err := RenderAPI(prof, 10, bad, nil); err == nil {
		t.Error("mismatched checkpoint accepted")
	}
	ok, err := RenderAPI(prof, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	past := &APICheckpoint{Gen: workloads.GenState{FrameIdx: 4}, Frames: ok.Frames}
	if _, err := RenderAPI(prof, 2, past, nil); err == nil {
		t.Error("checkpoint past requested frame count accepted")
	}
}

// TestRenderMicroCancel pins that the per-frame hook sees every frame
// boundary with its published snapshot without changing the result,
// that its error aborts between frames, and that OnGPU's done func runs
// however the render ends.
func TestRenderMicroCancel(t *testing.T) {
	prof := workloads.ByName("Doom3/trdemo2")
	cfg := gpu.R520Config(160, 120)
	want, err := RenderMicro(prof, 2, cfg, MicroHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	var done int
	onGPU := func(*gpu.GPU) func() { return func() { done++ } }
	got, err := RenderMicro(prof, 2, cfg, MicroHooks{
		OnGPU: onGPU,
		OnFrame: func(f int, boundary metrics.Snapshot) error {
			if boundary.Len() == 0 {
				t.Errorf("frame %d: empty boundary snapshot", f)
			}
			seen = append(seen, f)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Errorf("hook frames = %v", seen)
	}
	if len(got.Frames) != len(want.Frames) {
		t.Fatalf("got %d frames, want %d", len(got.Frames), len(want.Frames))
	}
	for i := range want.Frames {
		if got.Frames[i] != want.Frames[i] {
			t.Errorf("frame %d differs", i)
		}
	}
	if got.Agg != want.Agg {
		t.Errorf("aggregate differs")
	}

	stop := errors.New("stop")
	seen = nil
	if _, err := RenderMicro(prof, 2, cfg, MicroHooks{
		OnGPU: onGPU,
		OnFrame: func(f int, _ metrics.Snapshot) error {
			seen = append(seen, f)
			return stop
		},
	}); !errors.Is(err, stop) {
		t.Errorf("err = %v, want the hook's abort error", err)
	}
	if len(seen) != 1 {
		t.Errorf("render continued past the abort: hook frames %v", seen)
	}
	if done != 2 {
		t.Errorf("OnGPU done ran %d times over two renders", done)
	}
}

// TestSeedAPI proves a seeded context serves the result without
// rendering: the seeded name has no profile, so any render attempt
// would fail.
func TestSeedAPI(t *testing.T) {
	c := NewContext()
	want := &APIResult{}
	c.SeedAPI("no/such-demo", want)
	got, err := c.API("no/such-demo")
	if err != nil || got != want {
		t.Errorf("API() = %v, %v; want the seeded result", got, err)
	}
	mw := &MicroResult{}
	c.SeedMicro("no/such-demo", mw)
	gm, err := c.Micro("no/such-demo")
	if err != nil || gm != mw {
		t.Errorf("Micro() = %v, %v; want the seeded result", gm, err)
	}
}

// TestNeededDemos pins the demand logic against Prefetch's.
func TestNeededDemos(t *testing.T) {
	api, micro, err := NeededDemos([]string{"table3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(api) != len(workloads.Registry()) || len(micro) != 0 {
		t.Errorf("table3: %d api, %d micro demos", len(api), len(micro))
	}
	api, micro, err = NeededDemos([]string{"table7"})
	if err != nil {
		t.Fatal(err)
	}
	if len(api) != 0 || len(micro) != len(SimDemos) {
		t.Errorf("table7: %d api, %d micro demos", len(api), len(micro))
	}
	// Figures demand only the demos they plot, not the whole registry:
	// rendering more would change the exported JSON document relative to
	// a lazy serial sweep.
	api, micro, err = NeededDemos([]string{"fig1", "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(api) != len(PlottedDemos) || len(micro) != 0 {
		t.Errorf("fig1+fig8: %d api demos, want the %d plotted", len(api), len(PlottedDemos))
	}
	if _, _, err := NeededDemos([]string{"nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestAPIFrameSnapshotRoundTrip pins the checkpoint serialization form.
func TestAPIFrameSnapshotRoundTrip(t *testing.T) {
	prof := workloads.ByName("FEAR/interval2")
	r, err := RenderAPI(prof, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range r.Frames {
		back := APIFrameFromSnapshot(APIFrameSnapshot(f))
		if back != f {
			t.Errorf("frame %d: round trip differs:\n got %+v\nwant %+v", i, back, f)
		}
	}
}
