package cache

import (
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

func mustCache(tb testing.TB, cfg Config) *Cache {
	tb.Helper()
	c, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// probe reports whether addr is present without disturbing LRU state.
func probe(c *Cache, addr uint64) bool {
	_, way := c.find(addr / pte.LineBytes)
	return way >= 0
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "L1 preset", cfg: L1Config},
		{name: "L2 preset", cfg: L2Config},
		{name: "L3 preset", cfg: L3Config},
		{name: "MMU preset", cfg: MMUConfig},
		{name: "zero size", cfg: Config{Ways: 4}, wantErr: true},
		{name: "zero ways", cfg: Config{SizeBytes: 1024}, wantErr: true},
		{name: "non-pow2 sets", cfg: Config{SizeBytes: 3 * 64 * 4, Ways: 4}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := mustCache(t, L1Config)
	if c.Access(0x1000, false).Hit {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000, false).Hit {
		t.Error("second access missed")
	}
	// Same line, different offset.
	if !c.Access(0x103F, false).Hit {
		t.Error("same-line access missed")
	}
	// Next line misses.
	if c.Access(0x1040, false).Hit {
		t.Error("adjacent line hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// 4-way cache with a single set: 4*64 bytes.
	c := mustCache(t, Config{Name: "tiny", SizeBytes: 4 * 64, Ways: 4})
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false)
	}
	c.Access(0, false) // refresh line 0
	// Fifth distinct line evicts the LRU: line 1.
	c.Access(4*64, false)
	if !probe(c, 0) {
		t.Error("recently used line evicted")
	}
	if probe(c, 1*64) {
		t.Error("LRU line survived")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := mustCache(t, Config{Name: "tiny", SizeBytes: 2 * 64, Ways: 2})
	c.Access(0, true) // dirty
	c.Access(64, false)
	res := c.Access(128, false) // evicts line 0 (dirty)
	if !res.WBValid || res.Writeback != 0 {
		t.Errorf("expected writeback of addr 0, got %+v", res)
	}
	res2 := c.Access(192, false) // evicts line 64 (clean)
	if res2.WBValid {
		t.Errorf("clean eviction produced writeback: %+v", res2)
	}
	s := c.Stats()
	if s.Evictions != 2 || s.Writebacks != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestInvalidate(t *testing.T) {
	c := mustCache(t, L1Config)
	c.Access(0x2000, true)
	res := c.Invalidate(0x2000)
	if !res.WBValid || res.Writeback != 0x2000 {
		t.Errorf("dirty invalidate = %+v", res)
	}
	if probe(c, 0x2000) {
		t.Error("line still present after invalidate")
	}
	if c.Invalidate(0x9999000).WBValid {
		t.Error("invalidating absent line produced writeback")
	}
}

func TestStatsAccounting(t *testing.T) {
	c := mustCache(t, L2Config)
	const n = 1000
	for i := 0; i < n; i++ {
		c.Access(uint64(i%100)*pte.LineBytes, false)
	}
	s := c.Stats()
	if s.Accesses != n {
		t.Errorf("accesses = %d, want %d", s.Accesses, n)
	}
	if s.Hits+s.Misses != s.Accesses {
		t.Error("hits + misses != accesses")
	}
	if s.Misses != 100 {
		t.Errorf("misses = %d, want 100 (one cold miss per line)", s.Misses)
	}
	c.Reset()
	if c.Stats().Accesses != 0 || probe(c, 0) {
		t.Error("Reset left residue")
	}
}

func TestWorkingSetLargerThanCacheThrashes(t *testing.T) {
	c := mustCache(t, Config{Name: "tiny", SizeBytes: 8 * 64, Ways: 2})
	// Sequential sweep over 4x the capacity, twice: second pass must
	// still miss everywhere (LRU on a streaming pattern).
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 32; i++ {
			c.Access(uint64(i)*64, false)
		}
	}
	s := c.Stats()
	if s.Hits != 0 {
		t.Errorf("streaming pattern got %d hits, want 0", s.Hits)
	}
}

// refCache is the set-of-structs cache the flat arrays replaced, kept as
// the reference model: one way struct per line, a modulo set index, an
// early-exit hit scan, and the victim taken as the first invalid way, else
// the lowest stamp.
type refCache struct {
	cfg   Config
	sets  [][]refWay
	clock uint64

	accesses, hits, misses, evictions, writebacks uint64
}

type refWay struct {
	lineAddr uint64
	valid    bool
	dirty    bool
	lastUse  uint64
}

func newRefCache(cfg Config) *refCache {
	sets := make([][]refWay, cfg.SizeBytes/pte.LineBytes/cfg.Ways)
	for i := range sets {
		sets[i] = make([]refWay, cfg.Ways)
	}
	return &refCache{cfg: cfg, sets: sets}
}

func (c *refCache) access(addr uint64, write bool) Result {
	c.clock++
	c.accesses++
	lineAddr := addr / pte.LineBytes
	set := c.sets[lineAddr%uint64(len(c.sets))]
	for i := range set {
		if set[i].valid && set[i].lineAddr == lineAddr {
			c.hits++
			set[i].lastUse = c.clock
			if write {
				set[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	c.misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	res := Result{}
	if set[victim].valid {
		c.evictions++
		res.Evicted = set[victim].lineAddr * pte.LineBytes
		res.EvValid = true
		if set[victim].dirty {
			c.writebacks++
			res.Writeback = set[victim].lineAddr * pte.LineBytes
			res.WBValid = true
		}
	}
	set[victim] = refWay{lineAddr: lineAddr, valid: true, dirty: write, lastUse: c.clock}
	return res
}

func (c *refCache) invalidate(addr uint64) Result {
	lineAddr := addr / pte.LineBytes
	set := c.sets[lineAddr%uint64(len(c.sets))]
	for i := range set {
		if set[i].valid && set[i].lineAddr == lineAddr {
			res := Result{}
			if set[i].dirty {
				res.Writeback = lineAddr * pte.LineBytes
				res.WBValid = true
			}
			set[i] = refWay{}
			return res
		}
	}
	return Result{}
}

func (c *refCache) probe(addr uint64) bool {
	lineAddr := addr / pte.LineBytes
	for _, w := range c.sets[lineAddr%uint64(len(c.sets))] {
		if w.valid && w.lineAddr == lineAddr {
			return true
		}
	}
	return false
}

func (c *refCache) stats() Stats {
	return Stats{
		Name:     c.cfg.Name,
		Accesses: c.accesses, Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Writebacks: c.writebacks,
	}
}

func (c *refCache) reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = refWay{}
		}
	}
	c.clock, c.accesses, c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0, 0, 0
}

func (c *refCache) resetStats() {
	c.accesses, c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0, 0
}

// TestMatchesReferenceModel drives the cache and the reference model with
// the same random Access/Invalidate/Reset/ResetStats sequence: every Result,
// every presence probe and the final Stats must match. Addresses come from
// a pool of four lines per way of each set (plus offsets inside the line),
// so sets fill, evict, and see invalidations of present and absent lines.
func TestMatchesReferenceModel(t *testing.T) {
	configs := []Config{
		{Name: "tiny", SizeBytes: 4 * 2 * 64, Ways: 2},
		{Name: "direct", SizeBytes: 8 * 64, Ways: 1},
		L1Config, L2Config, L3Config, MMUConfig,
	}
	for _, cfg := range configs {
		t.Run(cfg.Name, func(t *testing.T) {
			c, ref := mustCache(t, cfg), newRefCache(cfg)
			rng := stats.NewRNG(uint64(cfg.SizeBytes) ^ uint64(cfg.Ways))
			lines := 4 * cfg.SizeBytes / pte.LineBytes
			steps := max(20_000, 8*lines)
			for i := 0; i < steps; i++ {
				addr := uint64(rng.Intn(lines))*pte.LineBytes + uint64(rng.Intn(pte.LineBytes))
				switch op := rng.Intn(1000); {
				case op == 0:
					c.Reset()
					ref.reset()
				case op == 1:
					c.ResetStats()
					ref.resetStats()
				case op < 100:
					if got, want := c.Invalidate(addr), ref.invalidate(addr); got != want {
						t.Fatalf("step %d: Invalidate(%#x) = %+v, want %+v", i, addr, got, want)
					}
				default:
					write := rng.Intn(3) == 0
					if got, want := c.Access(addr, write), ref.access(addr, write); got != want {
						t.Fatalf("step %d: Access(%#x, %v) = %+v, want %+v", i, addr, write, got, want)
					}
				}
				if got, want := probe(c, addr), ref.probe(addr); got != want {
					t.Fatalf("step %d: probe(%#x) = %v, want %v", i, addr, got, want)
				}
			}
			if got, want := c.Stats(), ref.stats(); got != want {
				t.Errorf("stats = %+v, want %+v", got, want)
			}
		})
	}
}
