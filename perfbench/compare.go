package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricRule is one metric's direction and regression bound, read from
// BENCHMARK.json. Per-layer metrics have no bound.
type metricRule struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	EndToEnd []metricRule `json:"end_to_end"`
	PerLayer []metricRule `json:"per_layer"`
}

// verdict values.
const (
	verdictImproved   = "improved"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictFailed     = "failed"
)

// tally sums one result set's runs of one workload: how many there
// were, how many failed their output checks, and the operations
// attempted and failed over all of them.
type tally struct {
	runs, incorrect   int
	attempted, failed int
}

func (t tally) failedFrac() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

func (t tally) String() string {
	return fmt.Sprintf("runs %d (incorrect %d), operations %d, failed %d (%.4f)",
		t.runs, t.incorrect, t.attempted, t.failed, t.failedFrac())
}

// tallies sums a result set per workload.
func tallies(recs []record) map[string]tally {
	out := map[string]tally{}
	for _, r := range recs {
		t := out[r.Workload]
		t.runs++
		if !r.Result.Correct {
			t.incorrect++
		}
		t.attempted += r.Result.Attempted
		t.failed += r.Result.Failed
		out[r.Workload] = t
	}
	return out
}

// headFailed reports whether the head's outputs rule out any claim on a
// workload: a gain does not count when a run's outputs are wrong or a
// larger share of operations fails than at the base.
func headFailed(base, head tally) bool {
	return head.incorrect > 0 || head.failedFrac() > base.failedFrac()
}

// side summarizes one result set's values of one metric on one workload.
type side struct {
	n              int
	median, q1, q3 float64
	bySeed         map[int64]float64
	values         []float64
}

func summarize(bySeed map[int64]float64) side {
	s := side{bySeed: bySeed}
	for _, v := range bySeed {
		s.values = append(s.values, v)
	}
	s.n = len(s.values)
	s.median = median(s.values)
	s.q1, s.q3 = quartiles(s.values)
	return s
}

// compareMetric applies the rule for claiming a change: a gain needs at
// least 9 in 10 paired wins (pairs share a seed; ties count for
// neither) and a median gap larger than the base's interquartile range.
// A median worse than the base's by more than the bound is a
// regression. A spread wider than the bound on either side makes the
// metric unresolved, unless every head run beats every base run.
func compareMetric(base, head side, lowerBetter bool, bound *float64) (verdict string, wins, pairs int) {
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	losses := 0
	for seed, b := range base.bySeed {
		h, ok := head.bySeed[seed]
		if !ok {
			continue
		}
		pairs++
		switch {
		case better(h, b):
			wins++
		case better(b, h):
			losses++
		}
	}
	if base.n == 0 || head.n == 0 {
		return verdictUnresolved, wins, pairs
	}
	iqr := base.q3 - base.q1
	gap := math.Abs(head.median - base.median)
	if bound != nil {
		spread := func(s side) float64 { return ratio(s.q3-s.q1, math.Abs(s.median)) }
		if spread(base) > *bound || spread(head) > *bound {
			switch {
			case allBetter(head.values, base.values, better):
				return verdictImproved, wins, pairs
			case allBetter(base.values, head.values, better):
				return verdictWorse, wins, pairs
			}
			return verdictUnresolved, wins, pairs
		}
	}
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && gap > iqr:
		return verdictImproved, wins, pairs
	case bound != nil && better(base.median, head.median) && gap > *bound*math.Abs(base.median):
		return verdictWorse, wins, pairs
	case bound == nil && pairs > 0 && float64(losses) >= 0.9*float64(pairs) && gap > iqr:
		return verdictWorse, wins, pairs
	}
	return verdictUnchanged, wins, pairs
}

func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// readResultSet loads a result set: one JSON record per line, as
// written by --record.
func readResultSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// byMetric indexes a result set as workload -> metric -> seed -> value.
// Runs whose outputs failed their checks measured something else, so
// their values are left out; tallies accounts for them.
func byMetric(recs []record) map[string]map[string]map[int64]float64 {
	out := map[string]map[string]map[int64]float64{}
	for _, r := range recs {
		if !r.Result.Correct {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]map[int64]float64{}
		}
		for name, v := range r.Result.Metrics {
			if out[r.Workload][name] == nil {
				out[r.Workload][name] = map[int64]float64{}
			}
			out[r.Workload][name][r.Seed] = v.Value
		}
	}
	return out
}

// compareMain prints, per (workload, metric), each side's median and
// quartiles and a verdict.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark definition with each metric's direction and bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		usage()
		return 2
	}
	rules, err := readRules(*bounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	base, err := readResultSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	head, err := readResultSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	printComparison(os.Stdout, base, head, rules)
	return 0
}

func readRules(path string) (map[string]metricRule, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]metricRule{}
	for _, r := range append(bf.EndToEnd, bf.PerLayer...) {
		out[r.Name] = r
	}
	return out, nil
}

func printComparison(w io.Writer, base, head []record, rules map[string]metricRule) {
	for _, recs := range [][]record{base, head} {
		hosts := map[string]bool{}
		for _, r := range recs {
			b, _ := json.Marshal(r.Host)
			hosts[string(b)] = true
		}
		for h := range hosts {
			fmt.Fprintf(w, "host %s\n", h)
		}
	}
	b, h := byMetric(base), byMetric(head)
	bt, ht := tallies(base), tallies(head)
	workloads := unionKeys(bt, ht)
	for _, wl := range workloads {
		fmt.Fprintf(w, "%-20s base %s\n%-20s head %s\n", wl, bt[wl], "", ht[wl])
	}
	fmt.Fprintf(w, "%-20s %-34s %30s %30s %6s  %s\n", "workload", "metric",
		"base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, wl := range workloads {
		failed := headFailed(bt[wl], ht[wl])
		for _, n := range unionKeys(b[wl], h[wl]) {
			rule, ok := rules[n]
			if !ok {
				continue
			}
			bs, hs := summarize(b[wl][n]), summarize(h[wl][n])
			v, wins, pairs := compareMetric(bs, hs, rule.Better != "higher", rule.Bound)
			if failed {
				v = verdictFailed
			}
			fmt.Fprintf(w, "%-20s %-34s %30s %30s %3d/%-2d  %s\n", wl, n,
				fmtSide(bs), fmtSide(hs), wins, pairs, v)
		}
	}
}

// unionKeys returns the keys of a and b, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

func fmtSide(s side) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", s.median, s.q1, s.q3, s.n)
}
