package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"

	"gpuchar/internal/serve"
)

// expectedJSON pins every output the benchmark checks. It is generated
// by `perfbench expected` on a tree whose outputs are known good, and
// must be regenerated only by a change that intends to change outputs.
//
//go:embed expected.json
var expectedJSON []byte

// expectedTable is the decoded expected.json.
type expectedTable struct {
	// Frames maps "demo|twN|fK" to the digest of frame K's counters and
	// framebuffer at N tile workers.
	Frames map[string]string `json:"frames"`
	// Jobs maps each daemon-mix catalogue spec to its result's sha256.
	Jobs map[string]string `json:"jobs"`
	// CLI is the sha256 of `characterize` stdout for cliArgs.
	CLI string `json:"cli_stdout_sha256"`
}

var (
	expectedOnce sync.Once
	expected     *expectedTable
	expectedErr  error
)

func loadExpected() (*expectedTable, error) {
	expectedOnce.Do(func() {
		expected = &expectedTable{}
		expectedErr = json.Unmarshal(expectedJSON, expected)
	})
	return expected, expectedErr
}

// expectedMain regenerates expected.json from the tree the benchmark
// was built from.
func expectedMain(args []string) int {
	fs := flag.NewFlagSet("expected", flag.ContinueOnError)
	bin := fs.String("bin", "", "characterize binary")
	out := fs.String("out", "", "output path")
	if err := fs.Parse(args); err != nil || *bin == "" || *out == "" {
		usage()
		return 2
	}
	t, err := computeExpected(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench expected:", err)
		return 1
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err == nil {
		err = os.WriteFile(*out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench expected:", err)
		return 1
	}
	return 0
}

func computeExpected(bin string) (*expectedTable, error) {
	t := &expectedTable{Frames: map[string]string{}, Jobs: map[string]string{}}
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, name := range []string{"paper-frames", "multipass-parallel"} {
		fw := frameWorkloads[name]
		for _, demo := range fw.demos {
			wg.Add(1)
			go func(demo string, tw int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				digests, err := frameDigests(demo, tw, tableFrames)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					errs = append(errs, err)
					return
				}
				for k, v := range digests {
					t.Frames[k] = v
				}
				fmt.Fprintf(os.Stderr, "frames: %s done\n", demo)
			}(demo, fw.tileWorkers)
		}
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errs[0]
	}

	jobs, err := jobDigests()
	if err != nil {
		return nil, err
	}
	t.Jobs = jobs

	r := runCLI(bin, cliArgs...)
	if r.exitErr != nil {
		return nil, r.exitErr
	}
	t.CLI = sha(r.stdout)
	return t, nil
}

// frameDigests renders frames 1..n of a demo on a fresh GPU, exactly as
// a workload window does.
func frameDigests(demo string, tw, n int) (map[string]string, error) {
	r, err := newRig(demo, tw, nil)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for r.frame <= n {
		key := frameKey(r.demo, r.tw, r.frame)
		s, err := r.render()
		if err != nil {
			return nil, err
		}
		out[key] = s.digest
	}
	return out, nil
}

// jobDigests runs every daemon-mix catalogue spec on an in-memory
// service and returns the result sha256 per spec key.
func jobDigests() (map[string]string, error) {
	traces, err := recordTraces()
	if err != nil {
		return nil, err
	}
	svc, err := serve.Open(serve.Config{Workers: 2, QueueDepth: 1024, CacheEntries: -1, CacheBytes: -1})
	if err != nil {
		return nil, err
	}
	defer svc.Shutdown(context.Background())
	var specs []jobSpec
	for _, k := range missKinds {
		specs = append(specs, catalogue(k)...)
	}
	ids := make([]string, len(specs))
	for i, j := range specs {
		s := j.Spec
		if j.Trace != "" {
			s.Trace = traces[j.Trace]
		}
		v, err := svc.Submit(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", specKey(j), err)
		}
		ids[i] = v.ID
	}
	out := map[string]string{}
	for i, j := range specs {
		done, err := svc.Done(ids[i])
		if err != nil {
			return nil, err
		}
		<-done
		res, err := svc.Result(ids[i])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", specKey(j), err)
		}
		out[specKey(j)] = sha(res)
	}
	if len(out) != len(specs) {
		return nil, fmt.Errorf("catalogue spec keys collide")
	}
	return out, nil
}
