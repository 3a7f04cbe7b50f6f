// Package cache implements the set-associative, write-back, LRU caches of
// the baseline system (Table III): 32 KB 8-way L1s, 256 KB 16-way L2, 2 MB
// 16-way L3, plus the 8 KB 4-way MMU page-walk cache.
package cache

import (
	"fmt"
	"strings"

	"ptguard/internal/obs"
	"ptguard/internal/pte"
)

// Config sizes one cache level.
type Config struct {
	// Name labels the level in stats output, e.g. "L1D".
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
}

// Table III presets.
var (
	// L1Config is the 32 KB 8-way L1.
	L1Config = Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8}
	// L2Config is the 256 KB 16-way L2.
	L2Config = Config{Name: "L2", SizeBytes: 256 << 10, Ways: 16}
	// L3Config is the 2 MB 16-way LLC.
	L3Config = Config{Name: "L3", SizeBytes: 2 << 20, Ways: 16}
	// MMUConfig is the 8 KB 4-way MMU (page-walk) cache.
	MMUConfig = Config{Name: "MMU", SizeBytes: 8 << 10, Ways: 4}
)

// Cache is one set-associative level. Not safe for concurrent use.
//
// The ways live in flat arrays: way w of set i sits at i*ways+w. A tag
// holds lineAddr+1, so 0 marks an invalid way, and an invalid way's stamp
// is 0 while every valid way's stamp is at least 1 (the clock is bumped
// before each use and only Reset zeroes it). The victim, the first way with
// the lowest stamp, is therefore the first invalid way when there is one,
// else the least recently used way.
type Cache struct {
	cfg     Config
	setMask uint64
	tags    []uint64
	stamps  []uint64
	dirty   []bool
	clock   uint64

	accesses, hits, misses, evictions, writebacks uint64
}

// New builds a cache; the line size is the system-wide 64 bytes.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: invalid config %+v", cfg)
	}
	lines := cfg.SizeBytes / pte.LineBytes
	if lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", lines, cfg.Ways)
	}
	nSets := lines / cfg.Ways
	if nSets == 0 || nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nSets)
	}
	return &Cache{
		cfg:     cfg,
		setMask: uint64(nSets - 1),
		tags:    make([]uint64, lines),
		stamps:  make([]uint64, lines),
		dirty:   make([]bool, lines),
	}, nil
}

// find returns the flat index of lineAddr's set and the way holding it
// (-1 when absent). Tags are unique within a set, so the scan runs every
// way without an early exit.
func (c *Cache) find(lineAddr uint64) (base, way int) {
	base = int(lineAddr&c.setMask) * c.cfg.Ways
	tag := lineAddr + 1
	way = -1
	for w, t := range c.tags[base : base+c.cfg.Ways] {
		if t == tag {
			way = w
		}
	}
	return base, way
}

// Result describes one access.
type Result struct {
	// Hit reports whether the line was present.
	Hit bool
	// Writeback, when WBValid, is the line address of a dirty victim that
	// must be written to memory.
	Writeback uint64
	// WBValid marks Writeback as meaningful.
	WBValid bool
	// Evicted, when EvValid, is the line address of the victim (clean or
	// dirty) displaced by this access. Callers holding side state keyed by
	// cached addresses (the MMU walkers' entry-value maps) use it to trim
	// that state in lockstep with the cache.
	Evicted uint64
	// EvValid marks Evicted as meaningful.
	EvValid bool
}

// Access looks up addr (installing it on miss) and returns hit/writeback
// information. write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.clock++
	c.accesses++
	lineAddr := addr / pte.LineBytes
	base, way := c.find(lineAddr)
	if way >= 0 {
		c.hits++
		c.stamps[base+way] = c.clock
		if write {
			c.dirty[base+way] = true
		}
		return Result{Hit: true}
	}
	c.misses++

	v, oldest := base, c.stamps[base]
	for w, s := range c.stamps[base : base+c.cfg.Ways] {
		if s < oldest {
			v, oldest = base+w, s
		}
	}
	res := Result{}
	if t := c.tags[v]; t != 0 {
		c.evictions++
		res.Evicted = (t - 1) * pte.LineBytes
		res.EvValid = true
		if c.dirty[v] {
			c.writebacks++
			res.Writeback = res.Evicted
			res.WBValid = true
		}
	}
	c.tags[v], c.stamps[v], c.dirty[v] = lineAddr+1, c.clock, write
	return res
}

// Invalidate drops addr if present, returning a writeback address for a
// dirty line. Used when PT-Guard refuses to forward a faulty PTE line.
func (c *Cache) Invalidate(addr uint64) Result {
	lineAddr := addr / pte.LineBytes
	base, way := c.find(lineAddr)
	if way < 0 {
		return Result{}
	}
	v := base + way
	res := Result{}
	if c.dirty[v] {
		res.Writeback = lineAddr * pte.LineBytes
		res.WBValid = true
	}
	c.tags[v], c.stamps[v], c.dirty[v] = 0, 0, false
	return res
}

// Stats summarises cache activity.
type Stats struct {
	Name                   string
	Accesses, Hits, Misses uint64
	Evictions, Writebacks  uint64
}

// Stats returns a snapshot.
func (c *Cache) Stats() Stats {
	return Stats{
		Name:     c.cfg.Name,
		Accesses: c.accesses, Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Writebacks: c.writebacks,
	}
}

// PublishObs feeds the cache counters into the metric registry under
// "cache.<name>." (the obs snapshot path; a nil registry is a no-op).
func (c *Cache) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	p := "cache." + strings.ToLower(c.cfg.Name) + "."
	r.SetCounter(p+"accesses", c.accesses)
	r.SetCounter(p+"hits", c.hits)
	r.SetCounter(p+"misses", c.misses)
	r.SetCounter(p+"evictions", c.evictions)
	r.SetCounter(p+"writebacks", c.writebacks)
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.stamps)
	clear(c.dirty)
	c.clock, c.accesses, c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0, 0, 0
}

// ResetStats zeroes the counters but keeps cache contents (used after a
// warm-up phase).
func (c *Cache) ResetStats() {
	c.accesses, c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0, 0
}
