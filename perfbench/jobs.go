package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"gpuchar/internal/gfxapi"
	"gpuchar/internal/serve"
	"gpuchar/internal/trace"
	"gpuchar/internal/workloads"
)

// Job kinds of the daemon-mix workload.
const (
	kindAPI    = "api"    // API-level experiment job
	kindSim    = "sim"    // small simulated job under a hardware variant
	kindReplay = "replay" // replay of a recorded trace
	kindHit    = "hit"    // resubmit of a completed spec: a cache hit
)

// kindPattern is the fixed order each client cycles through. The seed
// picks the concrete specs, never the mix, so every seed offers the
// daemon the same proportion of work.
//
// The equal weights are not measured traffic: the repository has no
// record of how the daemon is used. Its only in-repo clients are the CI
// smokes (two API-level jobs, nine simulated jobs, eight resubmits, no
// replays) and sweep grids (simulated jobs, then resubmits), which test
// features rather than model a load. The weights only set the share of
// each kind in the queue; op_ms_p50 weighs the kinds equally whatever
// the mix, and the per-kind latencies serve.job_ms_p50.{api,sim,replay}
// are the figures to compare for a change aimed at one kind.
var kindPattern = []string{kindAPI, kindSim, kindReplay, kindHit}

// missKinds are the kinds that make the daemon run a job.
var missKinds = []string{kindAPI, kindSim, kindReplay}

// catalogueSize is the number of miss specs of each kind; the two
// clients split them. It leaves several times the headroom a window
// uses today, so a faster daemon does not run out within a window.
const catalogueSize = 64

// Within a kind every spec costs about the same: specs differ only in
// fields that change the cache key but not the work (the resolution of
// an API-level job, one pixel of a tiny simulated frame, a replay's
// name), so the seed's choice of specs does not move the latency mix.
var (
	apiExperiments = []string{"fig1", "table3", "table12"}
	simVariants    = []string{"r520", "texl0-half", "texl1-half", "zcache-half", "no-hz", "no-compression"}
	// replayDemos are recorded once per run, before set-up; replays
	// reuse their bytes under distinct names, which are distinct specs.
	replayDemos = []string{"Doom3/trdemo2", "Quake4/demo4"}
)

const replayFrames = 8

// jobSpec is one catalogue entry: the spec submitted and the name of
// the demo whose recorded trace a replay spec uploads.
type jobSpec struct {
	Kind  string
	Spec  serve.JobSpec
	Trace string
}

// catalogue returns the deterministic miss specs of one kind. Entry i
// is the same on every run, so its result digest can be pinned.
func catalogue(kind string) []jobSpec {
	var out []jobSpec
	for i := 0; i < catalogueSize; i++ {
		j := jobSpec{Kind: kind}
		switch kind {
		case kindAPI:
			j.Spec = serve.JobSpec{Experiments: apiExperiments, APIFrames: 20,
				Width: 256 + i, Height: 192}
		case kindSim:
			j.Spec = serve.JobSpec{Experiments: []string{"table9"}, APIFrames: 8, SimFrames: 1,
				Width: 64 + i/len(simVariants), Height: 48, Config: simVariants[i%len(simVariants)]}
		case kindReplay:
			j.Trace = replayDemos[i%len(replayDemos)]
			j.Spec = serve.JobSpec{TraceName: fmt.Sprintf("replay-%02d", i)}
		}
		out = append(out, j)
	}
	return out
}

// specKey names a catalogue spec in the expected-result table.
func specKey(j jobSpec) string {
	s := j.Spec
	if j.Trace != "" {
		s.Trace = []byte(j.Trace) // the demo name stands in for its bytes
	}
	doc, _ := json.Marshal(s)
	sum := sha256.Sum256(doc)
	return j.Kind + "-" + hex.EncodeToString(sum[:8])
}

// op is one step of a client's closed loop: a miss spec, or a resubmit
// of the spec the client completed resubmitOf steps earlier.
type op struct {
	Kind       string
	Job        jobSpec
	ResubmitOf int // index into the client's sequence; -1 for misses
}

// recentMisses bounds how far back a resubmit reaches: both clients'
// recent misses together stay well inside the daemon's default 64-entry
// result cache, so a resubmit is a hit by construction, never a miss
// after an eviction.
const recentMisses = 8

// jobSequence generates client c's operation sequence for a seed. Each
// client draws its misses without replacement from its own half of
// every kind's catalogue, so no miss of one client is a hit for the
// other; a resubmit repeats one of the client's own recent misses.
func jobSequence(seed int64, client, clients int) []op {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	pools := map[string][]jobSpec{}
	for _, k := range missKinds {
		all := catalogue(k)
		var mine []jobSpec
		for i := client; i < len(all); i += clients {
			mine = append(mine, all[i])
		}
		rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
		pools[k] = mine
	}
	var seq []op
	var misses []int
	for step := 0; ; step++ {
		kind := kindPattern[step%len(kindPattern)]
		if kind == kindHit {
			prev := misses[len(misses)-1-rng.Intn(min(len(misses), recentMisses))]
			seq = append(seq, op{Kind: kindHit, Job: seq[prev].Job, ResubmitOf: prev})
			continue
		}
		if len(pools[kind]) == 0 {
			return seq
		}
		seq = append(seq, op{Kind: kind, Job: pools[kind][0], ResubmitOf: -1})
		pools[kind] = pools[kind][1:]
		misses = append(misses, len(seq)-1)
	}
}

// recordTrace records frames of an API-level demo through a null
// device: the input of the replay jobs.
func recordTrace(demo string, frames int) ([]byte, error) {
	prof := workloads.ByName(demo)
	if prof == nil {
		return nil, fmt.Errorf("unknown demo %q", demo)
	}
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, prof.API)
	if err != nil {
		return nil, err
	}
	dev := gfxapi.NewDevice(prof.API, gfxapi.NullBackend{})
	dev.SetRecorder(rec)
	if err := workloads.New(prof, dev, 256, 192).Run(frames); err != nil {
		return nil, err
	}
	if err := rec.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// recordTraces records every replay demo.
func recordTraces() (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, d := range replayDemos {
		b, err := recordTrace(d, replayFrames)
		if err != nil {
			return nil, err
		}
		out[d] = b
	}
	return out, nil
}
