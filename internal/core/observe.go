// Observability wiring for the experiment sweep: the Context's tracer
// plumbing (shared or per-experiment), the live-GPU registry behind the
// HTTP server's /metrics feed, and the per-experiment trace files.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"gpuchar/internal/gpu"
	"gpuchar/internal/metrics"
	"gpuchar/internal/obsv"
	"gpuchar/internal/workloads"
)

// LabelState tags the live-export snapshots with the run state of
// their demo.
const (
	LabelState   = "state"
	StateRunning = "running"
	StateDone    = "done"
)

// tracer returns the tracer demo renders should emit into right now:
// the sweep-wide Context.Trace when set, else the current experiment's
// TraceDir tracer, else nil (tracing off).
func (c *Context) tracer() *obsv.Tracer {
	if c.Trace != nil {
		return c.Trace
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.expTracer
}

// beginExperimentTrace installs a fresh per-experiment tracer when
// TraceDir (and not Trace) drives the sweep, returning it for the
// matching finishExperimentTrace. It returns nil when per-experiment
// tracing is off.
func (c *Context) beginExperimentTrace() *obsv.Tracer {
	if c.Trace != nil || c.TraceDir == "" {
		return nil
	}
	t := obsv.New(obsv.Options{SampleEvery: c.TraceSample})
	c.mu.Lock()
	c.expTracer = t
	c.mu.Unlock()
	return t
}

// finishExperimentTrace uninstalls the experiment's tracer and writes
// its events to TraceDir/<id>.json.
func (c *Context) finishExperimentTrace(id string, t *obsv.Tracer) error {
	c.mu.Lock()
	c.expTracer = nil
	c.mu.Unlock()
	path := filepath.Join(c.TraceDir, id+".json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: experiment trace: %w", err)
	}
	if err := t.WriteChromeJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("core: experiment trace %s: %w", path, err)
	}
	return f.Close()
}

// addLiveGPU registers an in-flight simulated render for LiveSnapshots.
func (c *Context) addLiveGPU(demo string, g *gpu.GPU) {
	c.mu.Lock()
	store(&c.liveGPUs, demo, g)
	c.mu.Unlock()
}

// removeLiveGPU drops a finished render from the live registry (its
// counters remain visible through the cached MicroResult).
func (c *Context) removeLiveGPU(demo string) {
	c.mu.Lock()
	delete(c.liveGPUs, demo)
	c.mu.Unlock()
}

// LiveSnapshots returns the sweep's counters as they stand right now:
// one snapshot per in-flight simulated demo (its last published frame
// boundary, labeled state="running") followed by one aggregate per
// finished demo (state="done", Table I order). It is safe to call
// concurrently with the running sweep — the feed behind the
// observability server's /metrics endpoint.
func (c *Context) LiveSnapshots() []metrics.Snapshot {
	c.mu.Lock()
	live := make(map[string]*gpu.GPU, len(c.liveGPUs))
	for k, v := range c.liveGPUs {
		live[k] = v
	}
	done := make(map[string]*MicroResult, len(c.microCache))
	for k, v := range c.microCache {
		done[k] = v
	}
	c.mu.Unlock()

	var out []metrics.Snapshot
	names := make([]string, 0, len(live))
	for n := range live {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if s, ok := live[n].PublishedSnapshot(); ok {
			out = append(out, s.WithLabels(
				LabelDemo, n, LabelSource, SourceSim, LabelState, StateRunning))
		}
	}
	for _, p := range workloads.Registry() {
		if r, ok := done[p.Name]; ok {
			out = append(out, r.Agg.MetricsSnapshot().WithLabels(
				LabelDemo, p.Name, LabelSource, SourceSim, LabelState, StateDone))
		}
	}
	return out
}
