package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// workloads lists the benchmark's workloads in declaration order.
var workloadNames = []string{"paper-frames", "multipass-parallel", "daemon-mix", "characterize-all"}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  perfbench --workload NAME --seed N --seconds S --trace 0|1 --bin CHARACTERIZE --work DIR [--record FILE]
  perfbench compare [--bounds BENCHMARK.json] BASE.jsonl HEAD.jsonl
  perfbench expected --bin CHARACTERIZE --out expected.json

workloads: %v
`, workloadNames)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "expected":
			os.Exit(expectedMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// runMain runs one workload and prints its report; the last line of
// standard output is the JSON result.
func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.Usage = usage
	var (
		workload = fs.String("workload", "", "workload name")
		seed     = fs.Int64("seed", 1, "input seed")
		seconds  = fs.Int("seconds", 10, "length of the timed window")
		traceArg = fs.String("trace", "0", "1 prints the per-layer metrics of a traced run")
		bin      = fs.String("bin", "", "characterize binary built from the tree under test")
		work     = fs.String("work", "", "scratch directory for spools and traces")
		recordTo = fs.String("record", "", "append this run to a result-set file (JSON lines)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	traced, err := strconv.ParseBool(*traceArg)
	if err != nil || *seconds < 1 || *work == "" {
		usage()
		return 2
	}
	if err := checkSpecs(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var o *outcome
	switch *workload {
	case "paper-frames", "multipass-parallel":
		o = runFrames(*workload, *seed, *seconds, traced)
	case "daemon-mix":
		o = runDaemon(*seed, *seconds, traced, dir)
	case "characterize-all":
		if *bin == "" {
			usage()
			return 2
		}
		o = runCharacterize(*bin, *seconds, traced, dir)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		usage()
		return 2
	}
	if o.attempted == 0 {
		o.attempted = 1
		o.fail("no operation completed")
	}
	res := o.result(traced)
	h := fingerprint()
	fmt.Printf("workload %s, seed %d, seconds %d, trace %v\n", *workload, *seed, *seconds, traced)
	printReport(os.Stdout, h, o, res)
	if *recordTo != "" {
		if err := appendRecord(*recordTo, record{Host: h, Workload: *workload, Seed: *seed,
			Seconds: *seconds, Trace: traced, Result: res, Notes: o.notes}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: record:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func appendRecord(path string, r record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
