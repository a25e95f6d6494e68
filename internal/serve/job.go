// Package serve turns the characterization engine into a long-running
// service: a bounded job queue feeding a worker pool, a
// content-addressed result cache, and frame-boundary checkpoints that
// let a killed daemon resume mid-demo. cmd/gpuchard mounts it on the
// observability HTTP server.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"gpuchar/internal/core"
	"gpuchar/internal/hwconfig"
	"gpuchar/internal/trace"
	"gpuchar/internal/workloads"
)

// CodeVersion participates in every cache key, so results computed by
// one build are never served for another (the simulator's counters are
// bit-stable only within a build). Bump it when the characterization
// output changes; tests override it to exercise invalidation.
var CodeVersion = "gpuchar/3"

// JobSpec describes one characterization job: either an experiment
// sweep over the synthetic workloads, or a replay of an uploaded trace
// stream. The zero value means "every experiment at paper defaults".
type JobSpec struct {
	// Experiments are the experiment IDs to run (tableN/figN). Empty
	// runs the full registry, matching `characterize -exp all`.
	Experiments []string `json:"experiments,omitempty"`
	// APIFrames / SimFrames / Width / Height mirror the characterize
	// flags; zero takes the paper defaults (120, 2, 1024, 768).
	APIFrames int `json:"api_frames,omitempty"`
	SimFrames int `json:"sim_frames,omitempty"`
	Width     int `json:"width,omitempty"`
	Height    int `json:"height,omitempty"`
	// TileWorkers is the simulator's tile-parallel fan-out (0/1 serial).
	TileWorkers int `json:"tile_workers,omitempty"`
	// Config names a hardware variant from the hwconfig registry
	// ("r520", "texl0-half", ...). Empty means the default point.
	Config string `json:"config,omitempty"`
	// ConfigParams is an inline hardware variant: a JSON document whose
	// fields override the r520 default (hwconfig overlay semantics).
	// Mutually exclusive with Config. Cache keys hash the variant's
	// canonical digest, so an inline document equivalent to a named
	// variant shares its cached results.
	ConfigParams *hwconfig.Variant `json:"config_params,omitempty"`
	// Trace, when non-empty, makes this a replay job: the bytes are a
	// recorded trace stream (v1/v2), validated at submission. Trace jobs
	// run no experiments.
	Trace []byte `json:"trace,omitempty"`
	// TraceName labels the replay's snapshots (default "trace").
	TraceName string `json:"trace_name,omitempty"`
}

// normalized fills defaults so that equivalent requests share one cache
// key.
func (s JobSpec) normalized() JobSpec {
	if len(s.Trace) > 0 {
		if s.TraceName == "" {
			s.TraceName = "trace"
		}
		// Replay jobs ignore the sweep parameters entirely.
		s.Experiments = nil
		s.APIFrames, s.SimFrames, s.Width, s.Height, s.TileWorkers = 0, 0, 0, 0, 0
		s.Config, s.ConfigParams = "", nil
		return s
	}
	if len(s.Experiments) == 0 {
		for _, e := range core.Experiments() {
			s.Experiments = append(s.Experiments, e.ID)
		}
	}
	if s.APIFrames == 0 {
		s.APIFrames = 120
	}
	if s.SimFrames == 0 {
		s.SimFrames = 2
	}
	if s.Width == 0 {
		s.Width = 1024
	}
	if s.Height == 0 {
		s.Height = 768
	}
	if s.TileWorkers == 0 {
		s.TileWorkers = 1
	}
	s.TraceName = ""
	return s
}

// validate rejects a spec a worker could not run. Call on the
// normalized form.
func (s *JobSpec) validate() error {
	if len(s.Trace) > 0 {
		if _, _, err := trace.SniffHeader(bytes.NewReader(s.Trace)); err != nil {
			return fmt.Errorf("serve: trace upload: %w", err)
		}
		return nil
	}
	for _, id := range s.Experiments {
		if core.ByID(id) == nil {
			return fmt.Errorf("serve: unknown experiment %q", id)
		}
	}
	if s.APIFrames <= 0 || s.SimFrames <= 0 || s.Width <= 0 || s.Height <= 0 {
		return fmt.Errorf("serve: api_frames %d, sim_frames %d, width %d, height %d must all be positive",
			s.APIFrames, s.SimFrames, s.Width, s.Height)
	}
	if s.TileWorkers < 0 {
		return fmt.Errorf("serve: tile_workers %d must be >= 0", s.TileWorkers)
	}
	v, err := s.variant()
	if err != nil {
		return err
	}
	if err := v.Validate(); err != nil {
		return fmt.Errorf("serve: config: %w", err)
	}
	return nil
}

// variant resolves the spec's hardware selection: the named registry
// entry, the inline parameter document, or the r520 default.
func (s JobSpec) variant() (hwconfig.Variant, error) {
	if s.Config != "" && s.ConfigParams != nil {
		return hwconfig.Variant{}, fmt.Errorf("serve: config %q and config_params are mutually exclusive", s.Config)
	}
	if s.Config != "" {
		v, ok := hwconfig.ByName(s.Config)
		if !ok {
			return hwconfig.Variant{}, fmt.Errorf("serve: unknown config %q", s.Config)
		}
		return v, nil
	}
	if s.ConfigParams != nil {
		return *s.ConfigParams, nil
	}
	return hwconfig.Default(), nil
}

// hwVariant is variant() falling back to the default — for paths past
// validation (cache keys, views) and for jobs restored from an older
// spool, where the selection fields may be absent.
func (s JobSpec) hwVariant() hwconfig.Variant {
	v, err := s.variant()
	if err != nil {
		return hwconfig.Default()
	}
	return v
}

// NewContext normalizes and validates an experiment spec, resolves its
// hardware variant, and returns the single-worker core.Context that
// runs it — the one place a job spec becomes a run, shared by the
// daemon's runner and the local sweep runner. Replay specs have no
// experiment context.
func (s JobSpec) NewContext() (*core.Context, error) {
	if len(s.Trace) > 0 {
		return nil, fmt.Errorf("serve: replay spec has no experiment context")
	}
	s = s.normalized()
	if err := s.validate(); err != nil {
		return nil, err
	}
	hw := s.hwVariant()
	c := core.NewContext()
	c.APIFrames, c.SimFrames = s.APIFrames, s.SimFrames
	c.W, c.H = s.Width, s.Height
	c.TileWorkers = s.TileWorkers
	c.HW = &hw
	return c, nil
}

// keySpec is the canonical form hashed into the cache key: the
// normalized spec with the trace bytes replaced by their digest and the
// hardware selection replaced by its canonical digest, plus the code
// version. Hashing the config digest (never the name) is what makes a
// sweep cell computed under an inline config a cache hit for the
// equivalent named one, and vice versa.
type keySpec struct {
	Spec         JobSpec `json:"spec"`
	TraceSHA     string  `json:"trace_sha,omitempty"`
	ConfigDigest string  `json:"config_digest,omitempty"`
	CodeVer      string  `json:"code_version"`
}

// key returns the content address of a normalized spec's result.
func (s JobSpec) key() string {
	ks := keySpec{Spec: s, CodeVer: CodeVersion}
	if len(s.Trace) > 0 {
		sum := sha256.Sum256(s.Trace)
		ks.TraceSHA = hex.EncodeToString(sum[:])
		ks.Spec.Trace = nil
	} else {
		ks.ConfigDigest = s.hwVariant().Digest()
		ks.Spec.Config, ks.Spec.ConfigParams = "", nil
	}
	doc, err := json.Marshal(ks)
	if err != nil {
		// A JobSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshal key spec: %v", err))
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// framesTotal is the job's expected frame count, for progress
// reporting. Replay jobs report 0 (the stream length is unknown until
// played).
func (s JobSpec) framesTotal() int {
	if len(s.Trace) > 0 {
		return 0
	}
	api, micro, err := core.NeededDemos(s.Experiments)
	if err != nil {
		return 0
	}
	return len(api)*s.APIFrames + len(micro)*s.SimFrames
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Job is one submitted characterization run. All mutable fields are
// guarded by the owning Service's mutex; callers observe jobs through
// JobView copies.
type Job struct {
	ID   string
	Spec JobSpec // normalized

	key            string
	state          State
	started        time.Time
	err            string
	errClass       string
	result         []byte
	cacheHit       bool
	framesDone     int
	framesTotal    int
	framesRestored int

	// done closes when the job reaches a terminal state.
	done chan struct{}
	// cancel tears down the running job's context (nil until running);
	// userCancel distinguishes a DELETE from a shutdown drain.
	cancel     func()
	userCancel bool
}

// JobView is the externally visible state of a job — what GET /jobs/id
// returns.
type JobView struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// ErrorClass buckets a failure (hung, panic, injected, timeout,
	// canceled, internal) so clients and chaos suites can branch on the
	// kind without parsing message text.
	ErrorClass string `json:"error_class,omitempty"`
	CacheHit   bool   `json:"cache_hit,omitempty"`
	// Frame progress: restored counts frames spliced in from a
	// checkpoint rather than rendered.
	FramesDone     int `json:"frames_done"`
	FramesTotal    int `json:"frames_total"`
	FramesRestored int `json:"frames_restored,omitempty"`
	// Experiments echoes the normalized sweep (empty for replay jobs).
	Experiments []string `json:"experiments,omitempty"`
	// Config and ConfigDigest echo the resolved hardware variant (empty
	// for replay jobs; "inline" when the spec carried a parameter
	// document without a name).
	Config       string `json:"config,omitempty"`
	ConfigDigest string `json:"config_digest,omitempty"`
	// Spec echoes the fully-normalized spec the job runs under — every
	// defaulted parameter made explicit — with the trace bytes elided.
	Spec *JobSpec `json:"spec,omitempty"`
}

// view snapshots a job. Callers hold the service mutex.
func (j *Job) view() JobView {
	echo := j.Spec
	echo.Trace = nil
	v := JobView{
		ID:             j.ID,
		State:          j.state,
		Error:          j.err,
		ErrorClass:     j.errClass,
		CacheHit:       j.cacheHit,
		FramesDone:     j.framesDone,
		FramesTotal:    j.framesTotal,
		FramesRestored: j.framesRestored,
		Experiments:    j.Spec.Experiments,
		Spec:           &echo,
	}
	if len(j.Spec.Trace) == 0 {
		hw := j.Spec.hwVariant()
		v.Config = hw.Name
		if v.Config == "" {
			v.Config = "inline"
		}
		v.ConfigDigest = hw.Digest()
	}
	return v
}

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// profileFor resolves a demo name, shared by the runner paths.
func profileFor(name string) (*workloads.Profile, error) {
	p := workloads.ByName(name)
	if p == nil {
		return nil, fmt.Errorf("serve: unknown demo %q", name)
	}
	return p, nil
}
