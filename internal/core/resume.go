package core

import (
	"fmt"

	"gpuchar/internal/gfxapi"
	"gpuchar/internal/metrics"
	"gpuchar/internal/workloads"
)

// SeedAPI installs a pre-computed API result into the context cache, so
// a subsequent sweep reads it instead of rendering. The serve runner
// uses it to hand checkpoint-spliced renders to the experiment code
// unchanged.
func (c *Context) SeedAPI(name string, r *APIResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	store(&c.apiCache, name, r)
}

// SeedMicro installs a pre-computed simulated result into the context
// cache (see SeedAPI).
func (c *Context) SeedMicro(name string, r *MicroResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	store(&c.microCache, name, r)
}

// NeededDemos reports the demo renders the given experiments demand:
// the API-level set (union of each experiment's APIDemos, in registry
// order) and the simulated set. It shares demand resolution with
// Prefetch, so a context seeded from these renders exports exactly the
// document a lazy serial sweep would. The serve runner walks the sets
// with RenderAPI and RenderMicro before seeding a context.
func NeededDemos(ids []string) (api, micro []string, err error) {
	return demoDemand(ids)
}

// demoDemand resolves the exact demo sets a list of experiments will
// read through Context.API and Context.Micro.
func demoDemand(ids []string) (api, micro []string, err error) {
	wantAPI := make(map[string]bool)
	wantMicro := make(map[string]bool)
	for _, id := range ids {
		e := ByID(id)
		if e == nil {
			return nil, nil, fmt.Errorf("core: unknown experiment %q", id)
		}
		for _, name := range e.APIDemos {
			wantAPI[name] = true
		}
		if e.Micro {
			demos := e.MicroDemos
			if len(demos) == 0 {
				demos = SimDemos
			}
			for _, name := range demos {
				wantMicro[name] = true
			}
		}
	}
	for _, p := range workloads.All() {
		if wantAPI[p.Name] {
			api = append(api, p.Name)
		}
		if wantMicro[p.Name] {
			micro = append(micro, p.Name)
		}
	}
	return api, micro, nil
}

// APIFrameSnapshot converts one API frame record to a metrics snapshot
// under the "api" prefix — the serialized form checkpoints persist.
func APIFrameSnapshot(f gfxapi.FrameStats) metrics.Snapshot {
	r := metrics.NewRegistry()
	f.Register(r, "api")
	return r.Snapshot()
}

// APIFrameFromSnapshot is the inverse of APIFrameSnapshot.
func APIFrameFromSnapshot(s metrics.Snapshot) gfxapi.FrameStats {
	var f gfxapi.FrameStats
	r := metrics.NewRegistry()
	f.Register(r, "api")
	r.Load(s)
	return f
}
