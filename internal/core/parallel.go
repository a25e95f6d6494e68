package core

import (
	"fmt"
	"sync"

	"gpuchar/internal/obsv"
)

// prefetchJob is one demo render: an API-level replay or a full
// simulation.
type prefetchJob struct {
	name  string
	micro bool
}

// Prefetch renders every demo the given experiments will need on a
// bounded pool of Workers goroutines, populating the context caches.
// Each demo owns a private GPU/device/workload, so runs are
// embarrassingly parallel; experiments afterwards read the cached
// results in paper order, making the final output independent of
// completion order. With Workers <= 1 it is a no-op (the experiments
// render lazily, exactly as before).
func (c *Context) Prefetch(ids []string) error {
	if c.Workers <= 1 {
		return nil
	}
	api, micro, err := demoDemand(ids)
	if err != nil {
		return err
	}
	var jobs []prefetchJob
	for _, name := range api {
		jobs = append(jobs, prefetchJob{name: name})
	}
	for _, name := range micro {
		jobs = append(jobs, prefetchJob{name: name, micro: true})
	}
	if len(jobs) == 0 {
		return nil
	}

	sem := make(chan struct{}, c.Workers)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j prefetchJob) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if j.micro {
				_, errs[i] = c.Micro(j.name)
			} else {
				_, errs[i] = c.API(j.name)
			}
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		// With KeepGoing the failure is negative-cached in the context;
		// the experiments that want the demo surface and record it.
		if err != nil && !c.KeepGoing {
			return err
		}
	}
	return nil
}

// RunExperiments regenerates the given experiments in order, fanning
// the underlying demo renders out across Context.Workers goroutines
// first. Results arrive in the requested order and are identical to a
// serial run at any worker count.
//
// By default the first failure aborts the sweep. With Context.KeepGoing
// a failed experiment yields a nil slot in the results and the sweep
// continues; the error return is then an ExperimentErrors aggregate
// listing every failed experiment and every dropped demo alongside the
// partial results.
func RunExperiments(c *Context, ids []string) ([]*Result, error) {
	if err := c.Prefetch(ids); err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(ids))
	var errs ExperimentErrors
	for _, id := range ids {
		var res *Result
		var err error
		c.Progress.StartExperiment(id)
		expTr := c.beginExperimentTrace()
		var sp obsv.Span
		if t := c.tracer(); t.Enabled() {
			sp = t.Begin(t.Track("experiments", "sweep"), id)
		}
		if e := ByID(id); e == nil {
			err = fmt.Errorf("unknown experiment %q", id)
		} else {
			res, err = runExperiment(c, e)
		}
		sp.End()
		if expTr != nil {
			if werr := c.finishExperimentTrace(id, expTr); werr != nil && err == nil {
				err = werr
			}
		}
		c.Progress.EndExperiment(id)
		if err != nil {
			ee := &ExperimentError{ID: id, Err: err}
			if !c.KeepGoing {
				return nil, ee
			}
			errs = append(errs, ee)
			out = append(out, nil)
			continue
		}
		out = append(out, res)
		if c.OnExperimentDone != nil {
			c.OnExperimentDone(id, c.experimentSnapshots(id))
		}
	}
	errs = append(errs, c.demoFailures()...)
	if len(errs) > 0 {
		return out, errs
	}
	return out, nil
}

// runExperiment converts a panic escaping an experiment's run function
// (as opposed to a demo render, which RenderAPI and RenderMicro already
// guard) into an error, so one broken table generator cannot take down
// the sweep.
func runExperiment(c *Context, e *Experiment) (res *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, fmt.Errorf("panic: %v", rec)
		}
	}()
	return e.Run(c)
}
