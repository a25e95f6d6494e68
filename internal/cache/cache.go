// Package cache provides the cache models used across the GPU pipeline:
// a set-associative write-back LRU cache (z & stencil, texture L0/L1 and
// color caches, Table XIV of the paper) and a FIFO stream cache matching
// the post-transform vertex cache of real GPUs (Figure 5).
//
// The models are functional: they track hits, misses and the memory
// traffic implied by line fills and dirty write-backs, but not timing.
package cache

import (
	"fmt"

	"gpuchar/internal/metrics"
)

// Config describes a set-associative cache geometry.
type Config struct {
	// Ways is the associativity (lines per set).
	Ways int
	// Sets is the number of sets. Ways*Sets*LineBytes is the capacity.
	Sets int
	// LineBytes is the line size in bytes. Must be a power of two.
	LineBytes int
}

// Size returns the total capacity in bytes.
func (c Config) Size() int { return c.Ways * c.Sets * c.LineBytes }

// String renders the geometry like the paper's Table XIV ("64w x 256B").
func (c Config) String() string {
	if c.Sets == 1 {
		return fmt.Sprintf("%dw x %dB", c.Ways, c.LineBytes)
	}
	return fmt.Sprintf("%dw x %ds x %dB", c.Ways, c.Sets, c.LineBytes)
}

// Stats accumulates cache activity.
type Stats struct {
	Hits           int64
	Misses         int64
	FillBytes      int64 // bytes read from memory on line fills
	WritebackBytes int64 // bytes written to memory on dirty evictions
}

// Register binds every counter of s into the registry under prefix
// (e.g. "cache/z/hits"). It is the single definition of the cache
// counter names shared by live stages and frame snapshots.
func (s *Stats) Register(r *metrics.Registry, prefix string) {
	r.Bind(prefix+"/hits", &s.Hits)
	r.Bind(prefix+"/misses", &s.Misses)
	r.Bind(prefix+"/fill_bytes", &s.FillBytes)
	r.Bind(prefix+"/writeback_bytes", &s.WritebackBytes)
}

// Accesses returns the total number of accesses.
func (s Stats) Accesses() int64 { return s.Hits + s.Misses }

// HitRate returns hits/accesses in [0,1], or 0 when idle.
func (s Stats) HitRate() float64 {
	t := s.Accesses()
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

type line struct {
	// lineAddr is the full line address (addr >> lineShift); it doubles
	// as the index key, so eviction can drop the map entry.
	lineAddr uint64
	dirty    bool
	// prev/next chain the line into its set's LRU list (-1 terminated);
	// the list runs LRU (head) to MRU (tail). A line is valid iff it is
	// on a list.
	prev, next int32
}

// Cache is a set-associative, write-allocate, write-back cache with LRU
// replacement.
//
// Lookups and victim selection are O(1): a line-address index replaces
// the way scan and an intrusive per-set LRU list replaces the age-stamp
// victim scan. The observable behavior — every hit/miss outcome, victim
// choice, fill and write-back — is byte-identical to the reference
// scan-based model (kept in the package tests as refCache), including
// its fill order for not-yet-valid ways: the reference victim scan
// starts preferring invalid lines at way 1, so a set fills ways
// 1, 2, …, W-1 and then way 0.
type Cache struct {
	cfg       Config
	lines     []line // sets*ways lines, set-major
	stats     Stats
	lineShift uint

	// idx maps line address -> index into lines for valid lines.
	idx map[uint64]int32
	// memo is a direct-mapped lineAddr -> line index table in front of
	// idx, so hits skip the map hashing. An entry is a hint: it is
	// trusted only if the line it names still holds lineAddr. Evictions
	// overwrite lineAddr and so need no memo upkeep; dropAll clears the
	// memo, because dropped lines keep their stale addresses.
	memo      []int32
	memoShift uint
	// used counts the valid ways of each set; lines only invalidate
	// wholesale (Flush/Invalidate), so a set's valid ways are exactly
	// the first used entries of its fill order.
	used []int32
	// head/tail are the per-set LRU list ends (-1 when empty).
	head, tail []int32

	// mru short-circuits the index lookup for repeated accesses to the
	// same line — the dominant pattern for texture fetches. The MRU line
	// is by construction already the tail of its set's list, so the fast
	// path touches no list state.
	mruLineAddr uint64
	mruIdx      int32
}

// New creates a cache. LineBytes must be a positive power of two and
// Ways and Sets must be positive; New returns an error otherwise, so
// callers wiring user-supplied geometry (config files, CLI flags) can
// reject it instead of crashing.
func New(cfg Config) (*Cache, error) {
	if cfg.Ways <= 0 || cfg.Sets <= 0 || cfg.LineBytes <= 0 {
		return nil, fmt.Errorf("cache: invalid config %+v", cfg)
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", cfg.LineBytes)
	}
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	n := cfg.Sets * cfg.Ways
	// Four memo slots per line keep collisions between resident lines
	// rare.
	memoBits := uint(2)
	for 1<<memoBits < 4*n {
		memoBits++
	}
	c := &Cache{
		cfg:       cfg,
		lines:     make([]line, n),
		lineShift: shift,
		idx:       make(map[uint64]int32, n),
		memo:      make([]int32, 1<<memoBits),
		memoShift: 64 - memoBits,
		used:      make([]int32, cfg.Sets),
		head:      make([]int32, cfg.Sets),
		tail:      make([]int32, cfg.Sets),
		mruIdx:    -1,
	}
	for s := range c.head {
		c.head[s], c.tail[s] = -1, -1
	}
	c.clearMemo()
	return c, nil
}

// MustNew is New for statically known geometry (the paper's Table XIV
// configurations); it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineShift returns log2 of the line size: addr >> LineShift() is the
// line address Access keys on.
func (c *Cache) LineShift() uint { return c.lineShift }

// AddHits counts n read hits without touching cache state. The caller
// must know that each of the n reads would hit and leave the LRU order
// as it is, as a re-read of the line read last does.
func (c *Cache) AddHits(n int64) { c.stats.Hits += n }

// Stats returns a snapshot of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the statistics but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// RegisterMetrics binds the cache's live counters into r under prefix.
func (c *Cache) RegisterMetrics(r *metrics.Registry, prefix string) {
	c.stats.Register(r, prefix)
}

// unlink removes line i from set's LRU list.
func (c *Cache) unlink(set int, i int32) {
	ln := &c.lines[i]
	if ln.prev >= 0 {
		c.lines[ln.prev].next = ln.next
	} else {
		c.head[set] = ln.next
	}
	if ln.next >= 0 {
		c.lines[ln.next].prev = ln.prev
	} else {
		c.tail[set] = ln.prev
	}
}

// pushMRU appends line i at the MRU end of set's LRU list.
func (c *Cache) pushMRU(set int, i int32) {
	ln := &c.lines[i]
	ln.next = -1
	ln.prev = c.tail[set]
	if c.tail[set] >= 0 {
		c.lines[c.tail[set]].next = i
	} else {
		c.head[set] = i
	}
	c.tail[set] = i
}

// Access touches the line containing addr. If write is true the line is
// marked dirty. It returns true on a hit. On a miss the line is filled
// (FillBytes grows by one line) and, if the victim was dirty, written
// back (WritebackBytes grows by one line).
func (c *Cache) Access(addr uint64, write bool) bool {
	lineAddr := addr >> c.lineShift
	if c.mruIdx >= 0 && c.mruLineAddr == lineAddr {
		if write {
			c.lines[c.mruIdx].dirty = true
		}
		c.stats.Hits++
		return true
	}
	slot := &c.memo[(lineAddr*0x9E3779B97F4A7C15)>>c.memoShift]
	i := *slot
	if i < 0 || c.lines[i].lineAddr != lineAddr {
		var ok bool
		if i, ok = c.idx[lineAddr]; !ok {
			i = -1
		}
	}
	if i >= 0 {
		set := int(lineAddr % uint64(c.cfg.Sets))
		if c.tail[set] != i {
			c.unlink(set, i)
			c.pushMRU(set, i)
		}
		if write {
			c.lines[i].dirty = true
		}
		c.stats.Hits++
		c.mruLineAddr, c.mruIdx = lineAddr, i
		*slot = i
		return true
	}

	// Miss: fill an unused way while the set has any (in the reference
	// model's order: ways 1, 2, …, W-1, then 0), else evict the LRU line.
	set := int(lineAddr % uint64(c.cfg.Sets))
	var vi int32
	if int(c.used[set]) < c.cfg.Ways {
		base := int32(set * c.cfg.Ways)
		if int(c.used[set])+1 < c.cfg.Ways {
			vi = base + c.used[set] + 1
		} else {
			vi = base
		}
		c.used[set]++
	} else {
		vi = c.head[set]
		v := &c.lines[vi]
		if v.dirty {
			c.stats.WritebackBytes += int64(c.cfg.LineBytes)
		}
		delete(c.idx, v.lineAddr)
		c.unlink(set, vi)
	}
	c.stats.Misses++
	c.stats.FillBytes += int64(c.cfg.LineBytes)
	c.lines[vi] = line{lineAddr: lineAddr, dirty: write, prev: -1, next: -1}
	c.pushMRU(set, vi)
	c.idx[lineAddr] = vi
	c.mruLineAddr, c.mruIdx = lineAddr, vi
	*slot = vi
	return false
}

// Flush writes back all dirty lines and invalidates the cache, adding the
// corresponding write-back traffic. Real pipelines do this between frames.
func (c *Cache) Flush() {
	for s := range c.head {
		for i := c.head[s]; i >= 0; i = c.lines[i].next {
			if c.lines[i].dirty {
				c.stats.WritebackBytes += int64(c.cfg.LineBytes)
			}
		}
	}
	c.dropAll()
}

// Invalidate drops all lines without writing anything back. Used for
// fast-clear semantics where the backing store is reset wholesale.
func (c *Cache) Invalidate() { c.dropAll() }

func (c *Cache) dropAll() {
	clear(c.idx)
	for s := range c.head {
		c.head[s], c.tail[s] = -1, -1
		c.used[s] = 0
	}
	c.mruIdx = -1
	c.clearMemo()
}

func (c *Cache) clearMemo() {
	for i := range c.memo {
		c.memo[i] = -1
	}
}
