package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricSpec declares one emitted metric.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd are the metrics every untraced run prints, on every
// workload. What "operation" means per workload is documented in doc.go.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s"},
	{Name: "op_ms_p50", Unit: "ms"},
	{Name: "ops_per_s", Unit: "1/s"},
	{Name: "live_heap_mb", Unit: "MB"},
}

// perLayer are the metrics every traced run prints, on every workload.
// A layer the workload does not exercise reports 0.
var perLayer = []metricSpec{
	{Name: "gfxapi.host_ms_per_frame", Unit: "ms"},
	{Name: "gpu.execute_ms_per_frame", Unit: "ms"},
	{Name: "gpu.us_per_draw", Unit: "us"},
	{Name: "gpu.draws_per_frame", Unit: "count"},
	{Name: "gpu.endframe_ms_per_frame", Unit: "ms"},
	{Name: "gpu.rt_ms_per_frame", Unit: "ms"},
	{Name: "gpu.geom_ms_per_frame", Unit: "ms"},
	{Name: "gpu.rast_ms_per_frame", Unit: "ms"},
	{Name: "gpu.zst_ms_per_frame", Unit: "ms"},
	{Name: "gpu.frag_ms_per_frame", Unit: "ms"},
	{Name: "gpu.rop_ms_per_frame", Unit: "ms"},
	{Name: "gpu.drain_imbalance", Unit: "ratio"},
	{Name: "gpu.sim_mfrags_per_s", Unit: "Mfrag/s"},
	{Name: "texture.self_ms_per_frame", Unit: "ms"},
	{Name: "cache.self_ms_per_frame", Unit: "ms"},
	{Name: "shader.self_ms_per_frame", Unit: "ms"},
	{Name: "fragment.self_ms_per_frame", Unit: "ms"},
	{Name: "rast.self_ms_per_frame", Unit: "ms"},
	{Name: "geom.self_ms_per_frame", Unit: "ms"},
	{Name: "zst.self_ms_per_frame", Unit: "ms"},
	{Name: "rop.self_ms_per_frame", Unit: "ms"},
	{Name: "runtime.gc_ms_per_frame", Unit: "ms"},
	{Name: "fragment.shaded_quads_per_frame", Unit: "count"},
	{Name: "texture.bilinear_per_frame", Unit: "count"},
	{Name: "geom.vertices_shaded_per_frame", Unit: "count"},
	{Name: "cache.texl0_hit_rate", Unit: "ratio"},
	{Name: "cache.texl1_hit_rate", Unit: "ratio"},
	{Name: "cache.z_hit_rate", Unit: "ratio"},
	{Name: "mem.mb_per_frame", Unit: "MB"},
	{Name: "gpu.frag_ns_per_shaded_quad", Unit: "ns"},
	{Name: "texture.ns_per_bilinear", Unit: "ns"},
	{Name: "gpu.geom_ns_per_vertex", Unit: "ns"},
	{Name: "runtime.alloc_mb_per_frame", Unit: "MB"},
	{Name: "metrics.snapshot_us", Unit: "us"},
	{Name: "obsv.trace_overhead", Unit: "ratio"},
	{Name: "trace.decode_mb_per_s", Unit: "MB/s"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms"},
	{Name: "serve.run_ms_p50.api", Unit: "ms"},
	{Name: "serve.run_ms_p50.sim", Unit: "ms"},
	{Name: "serve.run_ms_p50.replay", Unit: "ms"},
	{Name: "serve.job_ms_p50.api", Unit: "ms"},
	{Name: "serve.job_ms_p50.sim", Unit: "ms"},
	{Name: "serve.job_ms_p50.replay", Unit: "ms"},
	{Name: "serve.http_ms_p50", Unit: "ms"},
	{Name: "serve.hit_ms_p50", Unit: "ms"},
	{Name: "serve.job_ms_tail", Unit: "ms"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio"},
	{Name: "serve.rejected", Unit: "count"},
	{Name: "serve.spool_ms_per_job", Unit: "ms"},
	{Name: "serve.spool_syncs_per_job", Unit: "count"},
	{Name: "serve.retained_kb_per_job", Unit: "KB"},
	{Name: "core.render_s", Unit: "s"},
	{Name: "core.experiments_s", Unit: "s"},
	{Name: "characterize.cpu_util", Unit: "ratio"},
}

// Contract caps on the metric lists.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkSpecs validates the metric declarations: names well formed and
// unique across both lists, and each list within its cap.
func checkSpecs() error {
	if len(endToEnd) > maxEndToEnd || len(perLayer) > maxPerLayer {
		return fmt.Errorf("%d end-to-end / %d per-layer metrics exceed the caps %d / %d",
			len(endToEnd), len(perLayer), maxEndToEnd, maxPerLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric name %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

// outcome is what one workload run measured: operation counts, output
// check failures, and every metric it could compute by name.
type outcome struct {
	attempted int
	failed    int
	values    map[string]float64
	// notes are human-readable lines printed before the result (the
	// tail percentile's rank, failure details).
	notes []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result selects the declared metrics of one output (end-to-end or
// per-layer) from an outcome; absent ones report 0.
func (o *outcome) result(traced bool) resultLine {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	r := resultLine{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range specs {
		r.Metrics[m.Name] = metricValue{Value: o.values[m.Name], Unit: m.Unit}
	}
	return r
}

// host is the fingerprint recorded with every result set.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Dirty is null when the tree's VCS state is unknown.
	Dirty *bool `json:"dirty"`
}

// fingerprint describes the host and the tree under test. The commit
// comes from the VCS stamp the go tool embeds when the benchmark is
// built inside a git checkout; elsewhere it reads "unknown".
func fingerprint() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty := s.Value == "true"
				h.Dirty = &dirty
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// record is one run in a result set: a JSON line appended by --record
// and read back by compare mode.
type record struct {
	Host     host       `json:"host"`
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Seconds  int        `json:"seconds"`
	Trace    bool       `json:"trace"`
	Result   resultLine `json:"result"`
	Notes    []string   `json:"notes,omitempty"`
}

// printReport writes the human-readable part of a run: the host
// fingerprint, notes and a name/value/unit table.
func printReport(w io.Writer, h host, o *outcome, r resultLine) {
	hj, _ := json.Marshal(h)
	fmt.Fprintf(w, "host %s\n", hj)
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, failed_frac %.4g\n",
		o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)))
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}
