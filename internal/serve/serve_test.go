package serve

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpuchar/internal/core"
)

// expectedJSON computes the reference result for a spec the way
// `characterize -json` would: the spec's own context (JobSpec.NewContext)
// with a parallel fan-out, RunExperiments, WriteJSON.
func expectedJSON(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	c, err := spec.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	c.Workers = runtime.NumCPU()
	spec = spec.normalized()
	if _, err := core.RunExperiments(c, spec.Experiments); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitJob blocks until the job terminates, with a test-failing timeout.
func waitJob(t *testing.T, s *Service, id string) JobView {
	t.Helper()
	done, err := s.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", id)
	}
	view, err := s.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

func shutdownNow(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// serviceCounter reads one serve counter out of the service registry.
func serviceCounter(t *testing.T, s *Service, name string) int64 {
	t.Helper()
	snaps := s.MetricsSnapshots()
	v, ok := snaps[0].Get(name)
	if !ok {
		t.Fatalf("counter %s not in service snapshot", name)
	}
	return v
}

// TestParallelSubmitsByteIdentical is the tentpole acceptance test: N
// clients submit concurrently, every result is byte-identical to the
// single-shot characterize output, and a resubmission after completion
// is served from the cache without re-rendering.
func TestParallelSubmitsByteIdentical(t *testing.T) {
	spec := JobSpec{Experiments: []string{"table3", "fig1"}, APIFrames: 12}
	want := expectedJSON(t, spec)

	s, err := Open(Config{Workers: 4, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)

	const n = 6
	views := make([]JobView, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Submit(spec)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			views[i] = v
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if views[i].ID == "" {
			t.Fatal("submission failed")
		}
		final := waitJob(t, s, views[i].ID)
		if final.State != StateDone {
			t.Fatalf("job %s = %s (%s)", final.ID, final.State, final.Error)
		}
		got, err := s.Result(views[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %d result differs from single-shot characterize output", i)
		}
	}

	// Resubmission after completion: instant cache hit, no new frames.
	hitsBefore := serviceCounter(t, s, "serve/cache/hits")
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v.CacheHit || v.State != StateDone {
		t.Errorf("resubmit = %+v, want an instant cache hit", v)
	}
	got, err := s.Result(v.ID)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("cached result differs (%v)", err)
	}
	if hits := serviceCounter(t, s, "serve/cache/hits"); hits != hitsBefore+1 {
		t.Errorf("cache hits %d -> %d, want +1", hitsBefore, hits)
	}
}

// TestDistinctSpecsDistinctResults pins that the cache keys do not
// collide across parameters.
func TestDistinctSpecsDistinctResults(t *testing.T) {
	s, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)

	specs := []JobSpec{
		{Experiments: []string{"table3"}, APIFrames: 8},
		{Experiments: []string{"table3"}, APIFrames: 16},
		{Experiments: []string{"table9"}, SimFrames: 1, Width: 128, Height: 96},
		{Experiments: []string{"table9"}, SimFrames: 1, Width: 128, Height: 96, Config: "no-hz"},
	}
	results := make([][]byte, len(specs))
	for i, spec := range specs {
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, s, v.ID)
		results[i], _ = s.Result(v.ID)
	}
	if bytes.Equal(results[0], results[1]) {
		t.Error("different frame counts produced identical documents")
	}
	if bytes.Equal(results[2], results[3]) {
		t.Error("different hardware configs produced identical documents")
	}
	for i, spec := range specs {
		if !bytes.Equal(results[i], expectedJSON(t, spec)) {
			t.Errorf("spec %d: result differs from single-shot output", i)
		}
	}
}

// TestQueueBackpressure pins ErrQueueFull: with one worker stuck and
// the queue at capacity, the next submission is rejected, and distinct
// specs keep distinct identities through it.
func TestQueueBackpressure(t *testing.T) {
	s, err := Open(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)

	// Large jobs so the worker is busy while we fill the queue.
	mk := func(frames int) JobSpec {
		return JobSpec{Experiments: []string{"fig1"}, APIFrames: frames}
	}
	ids := []string{}
	var full bool
	for i := 0; i < 8; i++ {
		v, err := s.Submit(mk(5000 + i))
		if err == ErrQueueFull {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	if !full {
		t.Fatal("queue never filled")
	}
	// 1 running + 1 queued fit; the rest bounced.
	if len(ids) > 2 {
		t.Errorf("%d jobs accepted with QueueDepth 1", len(ids))
	}
	for _, id := range ids {
		if err := s.Cancel(id); err != nil {
			t.Errorf("cancel %s: %v", id, err)
		}
	}
}

// TestCancelQueuedAndRunning pins both cancellation paths.
func TestCancelQueuedAndRunning(t *testing.T) {
	s, err := Open(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)

	running, err := s.Submit(JobSpec{Experiments: []string{"fig1"}, APIFrames: 100000})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{Experiments: []string{"fig1"}, APIFrames: 100001})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first job to actually start.
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := s.Job(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Job(queued.ID); v.State != StateCanceled {
		t.Errorf("queued job = %s, want canceled", v.State)
	}
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, s, running.ID); v.State != StateCanceled {
		t.Errorf("running job = %s, want canceled", v.State)
	}
	if c := serviceCounter(t, s, "serve/jobs_canceled"); c != 2 {
		t.Errorf("jobs_canceled = %d, want 2", c)
	}
	// A canceled ID stays known but has no result.
	if _, err := s.Result(running.ID); err == nil {
		t.Error("canceled job served a result")
	}
}

// TestSubmitValidation pins spec rejection.
func TestSubmitValidation(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	if _, err := s.Submit(JobSpec{Experiments: []string{"nope"}}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := s.Submit(JobSpec{Trace: []byte("not a trace")}); err == nil {
		t.Error("malformed trace accepted")
	}
	if _, err := s.Job("j9999-missing"); err != ErrNotFound {
		t.Errorf("unknown job: %v, want ErrNotFound", err)
	}
}

// TestSubmitAfterShutdown pins ErrShutdown.
func TestSubmitAfterShutdown(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	shutdownNow(t, s)
	if _, err := s.Submit(JobSpec{Experiments: []string{"table3"}}); err != ErrShutdown {
		t.Errorf("submit after shutdown: %v, want ErrShutdown", err)
	}
}
