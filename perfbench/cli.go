package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// cliArgs is the characterize-all command line.
var cliArgs = []string{"-exp", "all", "-frames", "60", "-simframes", "1",
	"-w", "256", "-h", "192", "-workers", "2"}

// cliSetupArgs is the set-up run: one API-level experiment, which
// starts the binary and warms the page cache and the demo generators.
var cliSetupArgs = []string{"-exp", "table3", "-frames", "60", "-w", "256", "-h", "192", "-workers", "2"}

const cliSetups = 3

// cliRun is one finished characterize process.
type cliRun struct {
	wall    time.Duration
	cpu     time.Duration // user + system
	stdout  []byte
	liveMB  float64 // largest heap marked live by any GC cycle
	exitErr error
}

// cliTimeout bounds one characterize process; a hung one is killed and
// counted as failed, so a run always ends.
const cliTimeout = 60 * time.Second

// runCLI execs the characterize binary with GODEBUG=gctrace=1, so the
// runtime reports each collection's live heap on stderr.
func runCLI(bin string, args ...string) cliRun {
	ctx, cancel := context.WithTimeout(context.Background(), cliTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	t0 := time.Now()
	err := cmd.Run()
	r := cliRun{wall: time.Since(t0), stdout: out.Bytes(), exitErr: err}
	if cmd.ProcessState != nil {
		r.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	}
	r.liveMB = gcLiveMB(errb.Bytes())
	if err != nil {
		r.exitErr = fmt.Errorf("%v: %s", err, lastLine(errb.Bytes()))
	}
	return r
}

// gcLiveMB returns the largest "marked live" heap size of any gctrace
// line ("gc N @t: ... A->B->C MB, ..."): C is the heap left after
// marking.
func gcLiveMB(stderr []byte) float64 {
	var max float64
	for _, line := range bytes.Split(stderr, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("gc ")) {
			continue
		}
		i := bytes.Index(line, []byte(" MB,"))
		if i < 0 {
			continue
		}
		j := bytes.LastIndexByte(line[:i], '>')
		var v float64
		if _, err := fmt.Sscanf(string(line[j+1:i]), "%g", &v); err == nil && v > max {
			max = v
		}
	}
	return max
}

func lastLine(b []byte) string {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return string(lines[len(lines)-1])
}

// runCharacterize runs the characterize-all workload: the real binary,
// repeatedly, with its stdout checked against the expected sha256.
// Traced, half the window runs untraced and the rest with -trace, whose
// Chrome JSON splits the run into demo renders and experiments.
func runCharacterize(bin string, seconds int, traced bool, work string) *outcome {
	o := newOutcome()
	expected, err := loadExpected()
	if err != nil {
		o.fail("%v", err)
		return o
	}
	var setups []float64
	for i := 0; i < cliSetups; i++ {
		r := runCLI(bin, cliSetupArgs...)
		if r.exitErr != nil {
			o.attempted++
			o.fail("set-up run: %v", r.exitErr)
			return o
		}
		setups = append(setups, r.wall.Seconds())
	}
	o.set("setup_s", median(setups))

	check := func(r cliRun) bool {
		o.attempted++
		switch {
		case r.exitErr != nil:
			o.fail("characterize: %v", r.exitErr)
		case sha(r.stdout) != expected.CLI:
			o.fail("characterize stdout sha256 %s, expected %q", sha(r.stdout), expected.CLI)
		default:
			return true
		}
		return false
	}
	window := time.Duration(seconds) * time.Second
	if traced {
		window /= 2
	}
	var walls, live, util []float64
	start := time.Now()
	for i := 0; time.Since(start) < window || i == 0; i++ {
		r := runCLI(bin, cliArgs...)
		if !check(r) {
			continue
		}
		walls = append(walls, ms(r.wall))
		live = append(live, r.liveMB)
		util = append(util, r.cpu.Seconds()/r.wall.Seconds()/float64(runtime.NumCPU()))
	}
	elapsed := time.Since(start)
	o.set("op_ms_p50", median(walls))
	o.set("ops_per_s", float64(len(walls))/elapsed.Seconds())
	o.set("live_heap_mb", median(live))
	o.set("characterize.cpu_util", median(util))
	o.note("characterize runs %d in %.2fs, wall ms %.0f", len(walls), elapsed.Seconds(), walls)
	if !traced {
		return o
	}

	var traceWalls, render, exps []float64
	start = time.Now()
	for i := 0; time.Since(start) < window || i == 0; i++ {
		path := filepath.Join(work, fmt.Sprintf("trace-%d.json", i))
		r := runCLI(bin, append(append([]string(nil), cliArgs...), "-trace", path)...)
		if !check(r) {
			continue
		}
		rs, es, err := traceSplit(path)
		if err != nil {
			o.fail("trace %s: %v", path, err)
			continue
		}
		traceWalls = append(traceWalls, ms(r.wall))
		render = append(render, rs)
		exps = append(exps, es)
	}
	o.set("core.render_s", median(render))
	o.set("core.experiments_s", median(exps))
	o.set("obsv.trace_overhead", ratio(median(traceWalls), median(walls))-1)
	return o
}

// traceSplit reads a characterize -trace file and returns the summed
// duration of the simulated frame spans (demo renders) and of the
// experiment spans, in seconds.
func traceSplit(path string) (render, experiments float64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int32          `json:"pid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, 0, err
	}
	procs := map[int32]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			procs[e.Pid], _ = e.Args["name"].(string)
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		switch {
		case e.Name == "frame":
			render += e.Dur / 1e6
		case procs[e.Pid] == "experiments":
			experiments += e.Dur / 1e6
		}
	}
	return render, experiments, nil
}
