package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"sync"

	"gpuchar/internal/core"
	"gpuchar/internal/serve"
)

// Runner computes one cell's metrics document. cached reports whether
// the document came from a result cache rather than a fresh simulation.
type Runner interface {
	RunCell(cell Cell) (doc []byte, cached bool, err error)
}

// Options tunes the orchestrator.
type Options struct {
	// Workers bounds concurrent cells; <= 1 runs them serially. Queue
	// runs can go wide (the daemon owns the compute); local runs should
	// match cores.
	Workers int
	// Progress, when non-nil, receives one line per cell transition.
	Progress func(format string, args ...interface{})
}

func (o Options) progress(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// Run expands the spec and computes every cell through r, assembling
// rows in grid order regardless of completion order. A failed cell
// fails the sweep (cells are deduped, never optional).
func Run(spec Spec, r Runner, opts Options) (*Result, error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	type outcome struct {
		rows []Row
		err  error
	}
	results := make([]outcome, len(cells))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cell := cells[i]
			opts.progress("cell %d/%d: %s", i+1, len(cells), cell.Config.Name)
			doc, cached, err := r.RunCell(cell)
			if err != nil {
				results[i] = outcome{err: fmt.Errorf("sweep: %s: %w", cell.Config.Name, err)}
				return
			}
			rows, err := spec.CellRows(cell, doc, cached)
			if err != nil {
				results[i] = outcome{err: err}
				return
			}
			state := "computed"
			if cached {
				state = "cache hit"
			}
			opts.progress("cell %d/%d: %s done (%s, %d rows)",
				i+1, len(cells), cell.Config.Name, state, len(rows))
			results[i] = outcome{rows: rows}
		}(i)
	}
	wg.Wait()
	res := &Result{Schema: SchemaID, Spec: spec.normalized()}
	for _, o := range results {
		if o.err != nil {
			return nil, o.err
		}
		res.Rows = append(res.Rows, o.rows...)
	}
	return res, nil
}

// LocalRunner computes cells in-process: every cell builds its job's
// core.Context through serve.JobSpec.NewContext and runs the sweep's
// experiments, exactly like `characterize -config <name> -json`. No
// cache — every cell simulates.
type LocalRunner struct{}

// RunCell implements Runner.
func (LocalRunner) RunCell(cell Cell) ([]byte, bool, error) {
	cctx, err := cell.Job.NewContext()
	if err != nil {
		return nil, false, err
	}
	if _, err := core.RunExperiments(cctx, cell.Job.Experiments); err != nil {
		return nil, false, err
	}
	var buf bytes.Buffer
	if err := cctx.WriteJSON(&buf); err != nil {
		return nil, false, err
	}
	return buf.Bytes(), false, nil
}

// QueueRunner computes cells through a gpuchard daemon's job API. Do is
// the single HTTP primitive it needs — the gpuchard client plugs in its
// retrying transport, tests plug in httptest — so the runner carries no
// base URL, auth or backoff policy of its own.
type QueueRunner struct {
	// Do performs one request and returns the response body, failing on
	// any status other than wantStatus. contentType is empty for GETs.
	Do func(method, path, contentType string, body []byte, wantStatus int) ([]byte, error)
}

// RunCell submits the cell's job, long-polls it to a terminal state,
// and fetches the result document. The daemon's content-addressed cache
// makes a repeated cell a hit (reported via the job view's cache_hit).
func (q QueueRunner) RunCell(cell Cell) ([]byte, bool, error) {
	payload, err := json.Marshal(cell.Job)
	if err != nil {
		return nil, false, err
	}
	body, err := q.Do("POST", "/jobs", "application/json", payload, 202)
	if err != nil {
		return nil, false, fmt.Errorf("submit: %w", err)
	}
	var view serve.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		return nil, false, fmt.Errorf("submit response: %w", err)
	}
	for view.State != serve.StateDone && view.State != serve.StateFailed &&
		view.State != serve.StateCanceled {
		body, err = q.Do("GET", "/jobs/"+url.PathEscape(view.ID)+"?wait=30s", "", nil, 200)
		if err != nil {
			return nil, false, fmt.Errorf("poll: %w", err)
		}
		if err := json.Unmarshal(body, &view); err != nil {
			return nil, false, fmt.Errorf("poll response: %w", err)
		}
	}
	if view.State != serve.StateDone {
		return nil, false, fmt.Errorf("job %s %s: %s", view.ID, view.State, view.Error)
	}
	doc, err := q.Do("GET", "/jobs/"+url.PathEscape(view.ID)+"/result", "", nil, 200)
	if err != nil {
		return nil, false, fmt.Errorf("result: %w", err)
	}
	return doc, view.CacheHit, nil
}
