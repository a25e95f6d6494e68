package core

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// renderTables renders every table of every non-nil result to text.
func renderTables(results []*Result) string {
	var b bytes.Buffer
	for _, res := range results {
		if res == nil {
			continue
		}
		for _, t := range res.Tables {
			t.Render(&b)
		}
	}
	return b.String()
}

// dropLines removes the lines mentioning substr.
func dropLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// normalize strips the width-dependent table padding (dropping the
// longest demo name narrows every column) so comparisons see only the
// cell contents.
func normalize(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Trim(line, "- ") == "" {
			continue // column-width separator rule
		}
		fields := strings.Split(line, "|")
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		out = append(out, strings.Join(fields, "|"))
	}
	return strings.Join(out, "\n")
}

// TestKeepGoingPoisonedDemo is the fault-isolation acceptance test: with
// one demo's render deliberately panicking, a keep-going parallel sweep
// must still emit every other demo's rows byte-identical to a clean run
// and report the casualty with its name and crash position.
func TestKeepGoingPoisonedDemo(t *testing.T) {
	const poisoned = "Doom3/trdemo1"
	ids := []string{"table3", "table5", "table12"}

	clean := NewContext()
	clean.APIFrames = 8
	cleanRes, err := RunExperiments(clean, ids)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	testRenderHook = func(demo string) {
		if demo == poisoned {
			panic("poisoned for test")
		}
	}
	defer func() { testRenderHook = nil }()

	ctx := NewContext()
	ctx.APIFrames = 8
	ctx.KeepGoing = true
	ctx.Workers = 4
	gotRes, err := RunExperiments(ctx, ids)
	if err == nil {
		t.Fatal("poisoned keep-going run returned no error")
	}
	var errs ExperimentErrors
	if !errors.As(err, &errs) {
		t.Fatalf("error is %T, want ExperimentErrors", err)
	}
	if len(errs) != 1 || errs[0].Demo != poisoned {
		t.Fatalf("errs = %v, want one failure for %s", errs, poisoned)
	}
	msg := errs.Error()
	if !strings.Contains(msg, poisoned) || !strings.Contains(msg, "panic at frame") {
		t.Errorf("failure report %q lacks demo name or crash position", msg)
	}

	want := normalize(dropLines(renderTables(cleanRes), poisoned))
	got := normalize(renderTables(gotRes))
	if got != want {
		t.Errorf("surviving rows differ from clean run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestKeepGoingPoisonedSimDemo checks the same isolation on the
// simulated path, where the poisoned demo feeds a Micro experiment.
func TestKeepGoingPoisonedSimDemo(t *testing.T) {
	const poisoned = "UT2004/Primeval"
	ids := []string{"table7"}

	clean := NewContext()
	clean.SimFrames = 1
	clean.W, clean.H = 256, 192
	cleanRes, err := RunExperiments(clean, ids)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	testRenderHook = func(demo string) {
		if demo == poisoned {
			panic("poisoned for test")
		}
	}
	defer func() { testRenderHook = nil }()

	ctx := NewContext()
	ctx.SimFrames = 1
	ctx.W, ctx.H = 256, 192
	ctx.KeepGoing = true
	ctx.Workers = 3
	gotRes, err := RunExperiments(ctx, ids)
	var errs ExperimentErrors
	if !errors.As(err, &errs) {
		t.Fatalf("error is %T (%v), want ExperimentErrors", err, err)
	}
	if len(errs) != 1 || errs[0].Demo != poisoned {
		t.Fatalf("errs = %v, want one failure for %s", errs, poisoned)
	}
	want := normalize(dropLines(renderTables(cleanRes), poisoned))
	if got := normalize(renderTables(gotRes)); got != want {
		t.Errorf("surviving rows differ from clean run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestStrictAbortsOnPoisonedDemo pins the default behaviour: without
// KeepGoing the first failure aborts with an *ExperimentError.
func TestStrictAbortsOnPoisonedDemo(t *testing.T) {
	const poisoned = "UT2004/Primeval"
	testRenderHook = func(demo string) {
		if demo == poisoned {
			panic("poisoned for test")
		}
	}
	defer func() { testRenderHook = nil }()

	ctx := NewContext()
	ctx.APIFrames = 4
	res, err := RunExperiments(ctx, []string{"table3"})
	if err == nil {
		t.Fatal("strict run returned no error")
	}
	var ee *ExperimentError
	if !errors.As(err, &ee) || ee.ID != "table3" {
		t.Fatalf("error = %v, want *ExperimentError for table3", err)
	}
	if res != nil {
		t.Errorf("strict failure returned partial results")
	}
}

// TestKeepGoingLeavesNoGoroutines pins that no render outlives its
// sweep: after a keep-going fan-out with a poisoned demo returns — the
// simulated renders with tile workers included — the goroutine count
// comes back to its baseline.
func TestKeepGoingLeavesNoGoroutines(t *testing.T) {
	const poisoned = "UT2004/Primeval"
	testRenderHook = func(demo string) {
		if demo == poisoned {
			panic("poisoned for test")
		}
	}
	defer func() { testRenderHook = nil }()

	base := runtime.NumGoroutine()
	ctx := NewContext()
	ctx.APIFrames = 4
	ctx.SimFrames = 1
	ctx.W, ctx.H = 128, 96
	ctx.TileWorkers = 2
	ctx.KeepGoing = true
	ctx.Workers = 4
	_, err := RunExperiments(ctx, []string{"table3", "table7"})
	var errs ExperimentErrors
	if !errors.As(err, &errs) || len(errs) != 1 || errs[0].Demo != poisoned {
		t.Fatalf("err = %v, want one failure for %s", err, poisoned)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the sweep, %d before", n, base)
	}
}
