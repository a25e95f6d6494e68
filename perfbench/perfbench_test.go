package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gpu"
	"gpuchar/internal/metrics"
	"gpuchar/internal/workloads"
)

// renderDigests renders frames 0..n-1 of a demo at a small resolution,
// through the timing wrapper or straight into the GPU, and digests each.
func renderDigests(t *testing.T, demo string, tw, n int, wrapped bool) []string {
	t.Helper()
	prof := workloads.ByName(demo)
	cfg := gpu.R520Config(64, 48)
	cfg.TileWorkers = tw
	g := gpu.New(cfg)
	var be gfxapi.Backend = g
	if wrapped {
		be = &timedBackend{g: g}
	}
	wl := workloads.New(prof, gfxapi.NewDevice(prof.API, be), 64, 48)
	if err := wl.Setup(); err != nil {
		t.Fatal(err)
	}
	var out []string
	var prev metrics.Snapshot
	for i := 0; i < n; i++ {
		wl.RenderFrame()
		snap := g.MetricsSnapshot()
		out = append(out, frameDigest(snap.Diff(prev), g))
		prev = snap
	}
	return out
}

// The timing Backend wrapper must not change what the GPU computes: the
// same frames through it and directly give identical counter and
// framebuffer digests, on the serial and the tile-parallel multipass
// path alike.
func TestTimedBackendTransparent(t *testing.T) {
	for _, c := range []struct {
		demo string
		tw   int
	}{{"Doom3/trdemo2", 1}, {"ShadowMap/cascades", 2}} {
		direct := renderDigests(t, c.demo, c.tw, 3, false)
		wrapped := renderDigests(t, c.demo, c.tw, 3, true)
		if !reflect.DeepEqual(direct, wrapped) {
			t.Errorf("%s tw%d: wrapped digests %v, direct %v", c.demo, c.tw, wrapped, direct)
		}
	}
}

// The timing wrapper reports time inside each kind of call.
func TestTimedBackendTimesCalls(t *testing.T) {
	prof := workloads.ByName("Deferred/gbuffer")
	g := gpu.New(gpu.R520Config(64, 48))
	be := &timedBackend{g: g}
	wl := workloads.New(prof, gfxapi.NewDevice(prof.API, be), 64, 48)
	if err := wl.Run(1); err != nil {
		t.Fatal(err)
	}
	if be.t.draws == 0 || be.t.execute <= 0 || be.t.endFrame <= 0 || be.t.rt <= 0 {
		t.Fatalf("wrapper missed calls: %+v", be.t)
	}
}

func TestJobSequenceDeterministic(t *testing.T) {
	const seed, heldOut = 11, 12
	for c := 0; c < daemonClients; c++ {
		a, b := jobSequence(seed, c, daemonClients), jobSequence(seed, c, daemonClients)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("client %d: same seed gave different sequences", c)
		}
		if reflect.DeepEqual(a, jobSequence(heldOut, c, daemonClients)) {
			t.Fatalf("client %d: seeds %d and %d gave the same sequence", c, seed, heldOut)
		}
	}
	// No miss spec appears twice, within a client or across clients, and
	// every resubmit repeats an earlier miss of the same client.
	seen := map[string]bool{}
	for c := 0; c < daemonClients; c++ {
		seq := jobSequence(seed, c, daemonClients)
		for i, o := range seq {
			if want := kindPattern[i%len(kindPattern)]; o.Kind != want {
				t.Fatalf("client %d step %d: kind %s, want %s", c, i, o.Kind, want)
			}
			if o.ResubmitOf >= 0 {
				if o.ResubmitOf >= i || seq[o.ResubmitOf].ResubmitOf >= 0 ||
					i-o.ResubmitOf > recentMisses*len(kindPattern) {
					t.Fatalf("client %d step %d resubmits step %d", c, i, o.ResubmitOf)
				}
				continue
			}
			k := specKey(o.Job)
			if seen[k] {
				t.Fatalf("miss spec %s issued twice", k)
			}
			seen[k] = true
		}
	}
	if len(seen) != 3*catalogueSize {
		t.Fatalf("sequences cover %d miss specs, catalogue has %d", len(seen), 3*catalogueSize)
	}
}

// Every catalogue spec has a pinned result digest, and every frame a
// window can render has a pinned frame digest.
func TestExpectedTableComplete(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range missKinds {
		for _, j := range catalogue(k) {
			if exp.Jobs[specKey(j)] == "" {
				t.Fatalf("no expected result for %s", specKey(j))
			}
		}
	}
	for name, fw := range frameWorkloads {
		for _, d := range fw.demos {
			for f := 1; f <= tableFrames; f++ {
				if exp.Frames[frameKey(d, fw.tileWorkers, f)] == "" {
					t.Fatalf("%s: no expected digest for %s", name, frameKey(d, fw.tileWorkers, f))
				}
			}
		}
	}
	if len(exp.CLI) != 64 {
		t.Fatalf("expected CLI digest %q", exp.CLI)
	}
}

// Every emitted name is well formed and within the caps, and the
// declared lists match BENCHMARK.json exactly.
func TestMetricNames(t *testing.T) {
	if err := checkSpecs(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		benchmarkFile
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		decl []metricSpec
		file []metricRule
	}{{endToEnd, bf.EndToEnd}, {perLayer, bf.PerLayer}} {
		if len(c.decl) != len(c.file) {
			t.Fatalf("%d metrics declared, BENCHMARK.json lists %d", len(c.decl), len(c.file))
		}
		for i := range c.decl {
			if c.decl[i].Name != c.file[i].Name || c.decl[i].Unit != c.file[i].Unit {
				t.Errorf("metric %d: declared %s [%s], BENCHMARK.json %s [%s]", i,
					c.decl[i].Name, c.decl[i].Unit, c.file[i].Name, c.file[i].Unit)
			}
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	o := newOutcome()
	o.attempted = 1
	for _, traced := range []bool{false, true} {
		r := o.result(traced)
		for name := range r.Metrics {
			if !nameRE.MatchString(name) {
				t.Errorf("emitted name %q", name)
			}
		}
	}
}

// quartiles follows Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7, 7, 7, 7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tailPercentile(xs, 10); p != 75 || v != 30 {
		t.Errorf("40 samples: p%d = %v, want p75 = 30", p, v)
	}
	if p, v := tailPercentile(xs[:5], 10); p != 0 || v != 5 {
		t.Errorf("5 samples: p%d = %v, want max", p, v)
	}
}

// The profile decoder attributes a real CPU profile of this process.
func TestPackageSelfTime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	self, err := packageSelfTime(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range self {
		total += v
	}
	if total <= 0 || self["perfbench"]+self["main"] <= 0 {
		t.Fatalf("profile attribution %v (x=%v)", self, x)
	}
	if got := packageOf("gpuchar/internal/texture.(*Unit).SampleQuad"); got != "texture" {
		t.Errorf("packageOf = %q", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(vals ...float64) side {
		m := map[int64]float64{}
		for i, v := range vals {
			m[int64(i)] = v
		}
		return summarize(m)
	}
	bound := 0.1
	base := mk(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		head side
		want string
	}{
		{mk(100, 100, 100, 101, 99, 100, 101, 99, 100, 100), verdictUnchanged},
		{mk(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), verdictImproved},
		{mk(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), verdictWorse},
		{mk(60, 140, 80, 120, 100, 70, 130, 90, 110, 100), verdictUnresolved},
	} {
		if got, _, _ := compareMetric(base, c.head, true, &bound); got != c.want {
			t.Errorf("head %v: verdict %s, want %s", c.head.values, got, c.want)
		}
	}
}

// TestCompareFailedHead checks that compare mode never reports a head
// whose outputs fail more often than the base's as anything but failed,
// even where its remaining runs are faster.
func TestCompareFailedHead(t *testing.T) {
	run := func(wl string, seed int64, v float64, failed int) record {
		return record{Workload: wl, Seed: seed, Result: resultLine{
			Correct: failed == 0, Attempted: 10, Failed: failed,
			Metrics: map[string]metricValue{"op_ms_p50": {Value: v, Unit: "ms"}},
		}}
	}
	var base, head []record
	for seed := int64(0); seed < 10; seed++ {
		base = append(base, run("fast", seed, 100, 0), run("broken", seed, 100, 0), run("same", seed, 100, 0))
		brokenFailed := 0
		if seed < 3 {
			brokenFailed = 1
		}
		head = append(head, run("fast", seed, 50, 0), run("broken", seed, 50, brokenFailed), run("same", seed, 100, 0))
	}
	// A workload whose every head run failed has no head values at all.
	for seed := int64(0); seed < 10; seed++ {
		base = append(base, run("gone", seed, 100, 0))
		head = append(head, run("gone", seed, 1, 10))
	}
	bound := 0.1
	rules := map[string]metricRule{"op_ms_p50": {Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: &bound}}
	var out strings.Builder
	printComparison(&out, base, head, rules)
	want := map[string]string{"fast": verdictImproved, "broken": verdictFailed, "gone": verdictFailed, "same": verdictUnchanged}
	for wl, v := range want {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == wl && f[1] == "op_ms_p50" {
				found = true
				if got := f[len(f)-1]; got != v {
					t.Errorf("%s: verdict %s, want %s\n%s", wl, got, v, line)
				}
			}
		}
		if !found {
			t.Errorf("%s: no op_ms_p50 line in\n%s", wl, out.String())
		}
	}
	if !strings.Contains(out.String(), "head runs 10 (incorrect 3), operations 100, failed 3") {
		t.Errorf("failure tally missing from\n%s", out.String())
	}
}
