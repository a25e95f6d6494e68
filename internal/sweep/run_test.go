package sweep

import (
	"bytes"
	"context"
	"testing"
	"time"

	"gpuchar/internal/serve"
)

// TestLocalRunnerMatchesService pins that a sweep cell computes the same
// bytes in-process as through a daemon job: both build the cell's
// context with serve.JobSpec.NewContext. res-640x480 pins its own
// resolution over the spec's.
func TestLocalRunnerMatchesService(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every cell twice")
	}
	spec := Spec{
		Configs:     []string{"r520", "no-hz", "res-640x480"},
		Experiments: []string{"table9"},
		SimFrames:   1,
		Width:       128,
		Height:      96,
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.Open(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	docs := map[string][]byte{}
	for _, cell := range cells {
		local, cached, err := LocalRunner{}.RunCell(cell)
		if err != nil {
			t.Fatalf("%s: local: %v", cell.Config.Name, err)
		}
		if cached {
			t.Errorf("%s: local runner reported a cache hit", cell.Config.Name)
		}
		v, err := s.Submit(cell.Job)
		if err != nil {
			t.Fatal(err)
		}
		done, err := s.Done(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("%s: job %s did not finish", cell.Config.Name, v.ID)
		}
		daemon, err := s.Result(v.ID)
		if err != nil {
			t.Fatalf("%s: daemon: %v", cell.Config.Name, err)
		}
		if !bytes.Equal(local, daemon) {
			t.Errorf("%s: local document (%d bytes) differs from the daemon's (%d bytes)",
				cell.Config.Name, len(local), len(daemon))
		}
		docs[cell.Config.Name] = local
	}
	if bytes.Equal(docs["r520"], docs["no-hz"]) || bytes.Equal(docs["r520"], docs["res-640x480"]) {
		t.Error("distinct configs produced identical documents")
	}
}
