package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpuchar/internal/explorer"
	"gpuchar/internal/fault"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/obsv"
	"gpuchar/internal/serve"
	"gpuchar/internal/trace"
)

// daemonSetups is how many times daemon-mix opens a daemon; the last one
// serves the window.
const daemonSetups = 15

const daemonClients = 2

// jobTimeout bounds how long a client waits for one job, so a hung job
// fails its operation instead of outliving the run.
const jobTimeout = 60 * time.Second

// retainedJobs is the job count daemon-mix's live_heap_mb is taken at.
const retainedJobs = 64

// timedFS is a fault.FS that forwards to the real filesystem and
// accumulates the time spent in it and the fsync barriers issued — the
// spool layer measured at the boundary serve.Config.FS exposes.
type timedFS struct {
	fault.FS
	nanos atomic.Int64
	syncs atomic.Int64
}

func (f *timedFS) time(start time.Time) { f.nanos.Add(int64(time.Since(start))) }

func (f *timedFS) MkdirAll(path string, perm os.FileMode) error {
	defer f.time(time.Now())
	return f.FS.MkdirAll(path, perm)
}
func (f *timedFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	defer f.time(time.Now())
	return f.FS.WriteFile(name, data, perm)
}
func (f *timedFS) Rename(a, b string) error {
	defer f.time(time.Now())
	return f.FS.Rename(a, b)
}
func (f *timedFS) Remove(name string) error {
	defer f.time(time.Now())
	return f.FS.Remove(name)
}
func (f *timedFS) ReadFile(name string) ([]byte, error) {
	defer f.time(time.Now())
	return f.FS.ReadFile(name)
}
func (f *timedFS) ReadDir(name string) ([]os.DirEntry, error) {
	defer f.time(time.Now())
	return f.FS.ReadDir(name)
}
func (f *timedFS) SyncFile(name string) error {
	defer f.time(time.Now())
	f.syncs.Add(1)
	return f.FS.SyncFile(name)
}
func (f *timedFS) SyncDir(name string) error {
	defer f.time(time.Now())
	f.syncs.Add(1)
	return f.FS.SyncDir(name)
}

// daemon is a running serve.Service behind the obsv HTTP server, wired
// the way cmd/gpuchard wires it.
type daemon struct {
	svc  *serve.Service
	srv  *obsv.Server
	reg  *explorer.Registry
	fs   *timedFS
	base string
}

// startDaemon opens a service on a fresh spool and returns once
// /healthz answers 200.
func startDaemon(spool string, client *http.Client) (*daemon, error) {
	d := &daemon{fs: &timedFS{FS: fault.OS{}}, reg: explorer.NewRegistry(256)}
	svc, err := serve.Open(serve.Config{Workers: 2, SpoolDir: spool, FS: d.fs, Explorer: d.reg})
	if err != nil {
		return nil, err
	}
	d.svc = svc
	d.srv, err = obsv.StartServer("127.0.0.1:0", obsv.ServerSources{
		Snapshots: svc.MetricsSnapshots,
		Mount: func(mux *http.ServeMux) {
			svc.Mount(mux)
			d.reg.Mount(mux)
		},
		Health: svc.Health,
	})
	if err != nil {
		d.stop()
		return nil, err
	}
	d.base = "http://" + d.srv.Addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon the way gpuchard does on SIGTERM.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.reg.Close()
	if d.srv != nil {
		d.srv.Shutdown(ctx)
	}
	if d.svc != nil {
		d.svc.Shutdown(ctx)
	}
}

// spoolJobs is how many finished jobs the set-up spool holds.
const spoolJobs = 64

// fillSpool runs one small experiment job and resubmits it until the
// spool holds spoolJobs finished jobs, each with its result file.
func fillSpool(spool string, client *http.Client, traces map[string][]byte) error {
	d, err := startDaemon(spool, client)
	if err != nil {
		return err
	}
	defer d.stop()
	fill := op{Kind: kindAPI, ResubmitOf: -1, Job: jobSpec{Kind: kindAPI,
		Spec: serve.JobSpec{Experiments: []string{"table3"}, APIFrames: 8, Width: 256, Height: 192}}}
	var first []byte
	for i := 0; i < spoolJobs; i++ {
		_, body, err := d.do(client, fill, traces)
		if err != nil {
			return err
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			return errors.New("resubmitted spool-fill job returned different bytes")
		}
	}
	return nil
}

// jobSample is one completed client operation.
type jobSample struct {
	kind      string
	id        string
	submitted time.Time
	latency   time.Duration
	cacheHit  bool
}

// runDaemon runs the daemon-mix workload.
func runDaemon(seed int64, seconds int, traced bool, work string) *outcome {
	o := newOutcome()
	expected, err := loadExpected()
	if err != nil {
		o.fail("%v", err)
		return o
	}
	// Inputs first, outside set-up: the traces the replay jobs upload.
	traces, err := recordTraces()
	if err != nil {
		o.attempted++
		o.fail("record traces: %v", err)
		return o
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients},
		Timeout:   2 * jobTimeout,
	}
	defer client.CloseIdleConnections()

	// Set-up restarts the daemon on a spool that already holds finished
	// jobs, as an operator's restart would: serve.Open rescans the
	// spool and restores every result into the cache before /healthz
	// answers. Filling the spool is input preparation, not set-up.
	spool := filepath.Join(work, "spool")
	if err := fillSpool(spool, client, traces); err != nil {
		o.attempted++
		o.fail("fill spool: %v", err)
		return o
	}
	var setups []float64
	var d *daemon
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			d.stop()
		}
		// Collect the previous daemon's garbage first, so no set-up pays
		// for a collection the one before it caused.
		runtime.GC()
		t0 := time.Now()
		d, err = startDaemon(spool, client)
		if err != nil {
			o.attempted++
			o.fail("set-up: %v", err)
			return o
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	o.set("setup_s", median(setups))
	heap0 := liveHeapMB()

	var (
		mu       sync.Mutex
		samples  []jobSample
		rejected int
		wg       sync.WaitGroup
	)
	window := time.Duration(seconds) * time.Second
	fs0, sync0 := d.fs.nanos.Load(), d.fs.syncs.Load()
	start := time.Now()
	for c := 0; c < daemonClients; c++ {
		seq := jobSequence(seed, c, daemonClients)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results := make([][]byte, len(seq))
			for i, op := range seq {
				if time.Since(start) >= window {
					return
				}
				s, body, err := d.do(client, op, traces)
				mu.Lock()
				o.attempted++
				switch {
				case err != nil:
					var se *statusError
					if errors.As(err, &se) && (se.code == http.StatusTooManyRequests ||
						se.code == http.StatusServiceUnavailable) {
						rejected++
					}
					o.fail("%s %s: %v", op.Kind, specKey(op.Job), err)
				case op.ResubmitOf >= 0 && !bytes.Equal(body, results[op.ResubmitOf]):
					o.fail("resubmit of %s returned different bytes", specKey(op.Job))
				case op.ResubmitOf >= 0 && !s.cacheHit:
					o.fail("resubmit of %s was not a cache hit", specKey(op.Job))
				case op.ResubmitOf < 0 && sha(body) != expected.Jobs[specKey(op.Job)]:
					o.fail("%s: result sha256 %s, expected %q", specKey(op.Job), sha(body),
						expected.Jobs[specKey(op.Job)])
				default:
					samples = append(samples, s)
				}
				mu.Unlock()
				results[i] = body
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	fsNanos, syncs := d.fs.nanos.Load()-fs0, d.fs.syncs.Load()-sync0

	var miss, hit []float64
	perKind := map[string][]float64{}
	for _, s := range samples {
		if s.cacheHit {
			hit = append(hit, ms(s.latency))
		} else {
			miss = append(miss, ms(s.latency))
		}
		perKind[s.kind] = append(perKind[s.kind], ms(s.latency))
	}
	for _, k := range kindPattern {
		o.note("%-6s jobs %3d, latency p50 %.1f ms", k, len(perKind[k]), median(perKind[k]))
	}
	// The miss kinds differ several-fold in cost, so the median over all
	// misses sits inside whichever kind is middle in cost and a change to
	// the slowest or fastest kind cannot move it. op_ms_p50 is instead the
	// geometric mean of the per-kind miss medians: a relative change to
	// any one kind moves it by a third as much, whatever the mix.
	var kindMedians []float64
	for _, k := range missKinds {
		kindMedians = append(kindMedians, median(perKind[k]))
	}
	o.set("op_ms_p50", geomean(kindMedians))
	o.set("ops_per_s", float64(len(samples))/elapsed.Seconds())
	// The daemon keeps every job it has seen, so its heap at the end of
	// a window grows with the jobs the window completed. live_heap_mb
	// is the heap after set-up plus retainedJobs times the heap retained
	// per job over the window, so a faster daemon does not read as a
	// hungrier one.
	perJob := ratio(liveHeapMB()-heap0, float64(len(samples)))
	o.set("live_heap_mb", heap0+perJob*retainedJobs)
	o.set("serve.retained_kb_per_job", perJob*1024)
	p, tail := tailPercentile(miss, 10)
	o.note("jobs %d (misses %d, hits %d) in %.2fs; job_ms_tail is p%d of %d misses = %.1f ms",
		len(samples), len(miss), len(hit), elapsed.Seconds(), p, len(miss), tail)
	if !traced {
		return o
	}

	jobs := float64(len(samples))
	for _, k := range missKinds {
		o.set("serve.job_ms_p50."+k, median(perKind[k]))
	}
	o.set("serve.hit_ms_p50", median(hit))
	o.set("serve.job_ms_tail", tail)
	o.set("serve.spool_ms_per_job", ratio(float64(fsNanos)/1e6, jobs))
	o.set("serve.spool_syncs_per_job", ratio(float64(syncs), jobs))
	o.set("serve.rejected", float64(rejected))
	if err := d.layerTimes(client, samples, o); err != nil {
		o.fail("/api/runs: %v", err)
	}
	if err := d.cacheMetrics(client, o); err != nil {
		o.fail("/metrics: %v", err)
	}
	rate, err := decodeRate(traces)
	if err != nil {
		o.fail("trace decode: %v", err)
	}
	o.set("trace.decode_mb_per_s", rate)
	return o
}

// do submits one operation and waits for its result, timing the whole
// client-visible latency.
func (d *daemon) do(client *http.Client, op op, traces map[string][]byte) (jobSample, []byte, error) {
	s := jobSample{kind: op.Kind, submitted: time.Now()}
	var req *http.Request
	var err error
	if op.Job.Trace != "" {
		u := d.base + "/jobs?name=" + url.QueryEscape(op.Job.Spec.TraceName)
		req, err = http.NewRequest(http.MethodPost, u, bytes.NewReader(traces[op.Job.Trace]))
		if err == nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
	} else {
		doc, _ := json.Marshal(op.Job.Spec)
		req, err = http.NewRequest(http.MethodPost, d.base+"/jobs", bytes.NewReader(doc))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return s, nil, err
	}
	var view serve.JobView
	if err := doJSON(client, req, http.StatusAccepted, &view); err != nil {
		return s, nil, err
	}
	s.id = view.ID
	for !terminal(view.State) {
		if time.Since(s.submitted) > jobTimeout {
			return s, nil, fmt.Errorf("job %s not finished after %s", view.ID, jobTimeout)
		}
		req, _ := http.NewRequest(http.MethodGet, d.base+"/jobs/"+view.ID+"?wait=30s", nil)
		if err := doJSON(client, req, http.StatusOK, &view); err != nil {
			return s, nil, err
		}
	}
	if view.State != serve.StateDone {
		return s, nil, fmt.Errorf("job %s %s: %s", view.ID, view.State, view.Error)
	}
	resp, err := client.Get(d.base + "/jobs/" + view.ID + "/result")
	if err != nil {
		return s, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, nil, &statusError{code: resp.StatusCode, msg: fmt.Sprintf("result: HTTP %d", resp.StatusCode)}
	}
	s.latency = time.Since(s.submitted)
	s.cacheHit = view.CacheHit
	return s, body, nil
}

func terminal(s serve.State) bool {
	return s == serve.StateDone || s == serve.StateFailed || s == serve.StateCanceled
}

// doJSON sends a request and decodes a JSON response with the expected
// status. 429 and 503 come back as errors, so they count as failed.
func doJSON(client *http.Client, req *http.Request, want int, v any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return &statusError{code: resp.StatusCode,
			msg: fmt.Sprintf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode,
				strings.TrimSpace(string(body)))}
	}
	return json.Unmarshal(body, v)
}

// statusError is an unexpected HTTP status from the daemon.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// layerTimes splits each job's client latency with the explorer's run
// records: queue wait (submit to Started), run time (Started to
// Finished) per kind, and the remainder, HTTP and polling.
func (d *daemon) layerTimes(client *http.Client, samples []jobSample, o *outcome) error {
	req, _ := http.NewRequest(http.MethodGet, d.base+"/api/runs", nil)
	var doc struct {
		Runs []struct {
			ID       string `json:"id"`
			Started  string `json:"started"`
			Finished string `json:"finished"`
		} `json:"runs"`
	}
	if err := doJSON(client, req, http.StatusOK, &doc); err != nil {
		return err
	}
	type span struct{ start, end time.Time }
	runs := map[string]span{}
	for _, r := range doc.Runs {
		s, err1 := time.Parse(time.RFC3339Nano, r.Started)
		e, err2 := time.Parse(time.RFC3339Nano, r.Finished)
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		runs[r.ID] = span{s, e}
	}
	var queue, httpT []float64
	run := map[string][]float64{}
	for _, s := range samples {
		r, ok := runs[s.id]
		if !ok {
			return fmt.Errorf("job %s missing from /api/runs", s.id)
		}
		if s.cacheHit {
			continue
		}
		q, x := r.start.Sub(s.submitted), r.end.Sub(r.start)
		queue = append(queue, ms(q))
		run[s.kind] = append(run[s.kind], ms(x))
		httpT = append(httpT, ms(s.latency-q-x))
	}
	o.set("serve.queue_wait_ms_p50", median(queue))
	for _, k := range missKinds {
		o.set("serve.run_ms_p50."+k, median(run[k]))
	}
	o.set("serve.http_ms_p50", median(httpT))
	return nil
}

// cacheMetrics reads the service's own counters from /metrics.
func (d *daemon) cacheMetrics(client *http.Client, o *outcome) error {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err == nil {
			vals[name] += f
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	hits, ok1 := vals["gpuchar_serve_cache_hits"]
	submitted, ok2 := vals["gpuchar_serve_jobs_submitted"]
	if !ok1 || !ok2 {
		return errors.New("serve cache/job counters missing")
	}
	o.set("serve.cache_hit_ratio", ratio(hits, submitted))
	return nil
}

// decodeRate replays every recorded trace through trace.Player into a
// null-backend device and returns the decode throughput in MB/s.
func decodeRate(traces map[string][]byte) (float64, error) {
	var bytesRead int
	start := time.Now()
	for time.Since(start) < 500*time.Millisecond {
		for _, b := range traces {
			rd, err := trace.NewReader(bytes.NewReader(b))
			if err != nil {
				return 0, err
			}
			if _, err := trace.NewPlayer(gfxapi.NewDevice(rd.API(), gfxapi.NullBackend{})).Play(rd); err != nil {
				return 0, err
			}
			bytesRead += len(b)
		}
	}
	return float64(bytesRead) / (1 << 20) / time.Since(start).Seconds(), nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
