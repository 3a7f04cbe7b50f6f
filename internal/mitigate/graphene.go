package mitigate

// Graphene implements the Misra-Gries frequent-element tracker of Park et
// al. (MICRO'20), per bank: a bounded counter table plus one spillover
// counter. Every activation either increments its row's entry, claims a
// free entry, or bumps the spillover counter — and when the spillover
// counter overtakes the smallest table entry, that entry's row is evicted
// and the new row takes its place with the spillover count (the classic
// Misra-Gries swap, cf. the DRAMsim3 Graphene counter). Any row whose
// true activation count exceeds spillover+Threshold is therefore
// guaranteed to be in the table and to trip the threshold: unlike the
// TRR sampler there is no capacity evasion, only budget exhaustion.
type Graphene struct {
	cfg     Config
	stats   Stats
	banks   map[int]*mgTable
	scratch []int
}

// DefaultGrapheneEntries is the per-bank Misra-Gries table size when
// Config.TableSize is zero. Graphene sizes its table as W/T+1 entries
// (W = activations per window, T = detection threshold); 64 comfortably
// covers the scaled-down campaign windows.
const DefaultGrapheneEntries = 64

func init() {
	Register("graphene", func(cfg Config) (Mitigator, error) { return NewGraphene(cfg) })
}

// NewGraphene builds the Misra-Gries tracker.
func NewGraphene(cfg Config) (*Graphene, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := validateThreshold(cfg.Threshold); err != nil {
		return nil, err
	}
	if cfg.TableSize == 0 {
		cfg.TableSize = DefaultGrapheneEntries
	}
	return &Graphene{cfg: cfg, banks: make(map[int]*mgTable)}, nil
}

// Name implements Mitigator.
func (g *Graphene) Name() string { return "graphene" }

// OnActivate implements Mitigator: update the bank's Misra-Gries table
// and, if the activated row's estimated count crosses the threshold,
// refresh its neighbours and zero the entry.
func (g *Graphene) OnActivate(bank, row int) []int {
	t := g.banks[bank]
	if t == nil {
		t = newMGTable(g.cfg.TableSize)
		g.banks[bank] = t
	}
	n, evicted := t.Observe(row)
	if evicted {
		g.stats.Evictions++
	}
	if n < g.cfg.Threshold {
		return nil
	}
	t.Reset(row)
	g.scratch = Neighbours(g.scratch[:0], row, g.cfg.RowsPerBank)
	g.stats.Refreshes += uint64(len(g.scratch))
	return g.scratch
}

// OnRefreshWindow implements Mitigator: counter tables and spillover
// reset with the device refresh, Graphene's per-tREFW reset.
func (g *Graphene) OnRefreshWindow() {
	for bank := range g.banks {
		delete(g.banks, bank)
	}
	g.stats.TrackedRows = 0
	g.stats.WindowResets++
}

// Stats implements Mitigator.
func (g *Graphene) Stats() Stats {
	tracked := 0
	for _, t := range g.banks {
		tracked += len(t.counts)
	}
	g.stats.TrackedRows = tracked
	return g.stats
}

// mgTable is one bank's Misra-Gries state: bounded row->count map plus
// the spillover counter.
type mgTable struct {
	capacity  int
	counts    map[int]int
	spillover int
}

func newMGTable(capacity int) *mgTable {
	return &mgTable{capacity: capacity, counts: make(map[int]int, capacity)}
}

// Observe records one activation of row and returns the row's estimated
// count afterwards (0 if untracked) and whether another row was evicted.
func (t *mgTable) Observe(row int) (count int, evicted bool) {
	if n, ok := t.counts[row]; ok {
		t.counts[row] = n + 1
		return n + 1, false
	}
	if len(t.counts) < t.capacity {
		t.counts[row] = t.spillover + 1
		return t.spillover + 1, false
	}
	t.spillover++
	minRow, minCount := t.min()
	if t.spillover <= minCount {
		// The newcomer's upper bound is still below every entry: it
		// stays summarised in the spillover counter.
		return 0, false
	}
	// Misra-Gries swap: the smallest entry's row falls back into the
	// spillover pool and the newcomer inherits the spillover estimate.
	delete(t.counts, minRow)
	t.counts[row] = t.spillover
	t.spillover = minCount
	return t.counts[row], true
}

// Reset returns the entry for row to the spillover baseline after its
// neighbours were refreshed. Graphene resets a mitigated row's counter to
// the spillover count rather than zero (Park et al. §IV): dropping below
// the spillover would break the Misra-Gries bound that every tracked
// count dominates the summarised pool.
func (t *mgTable) Reset(row int) {
	if _, ok := t.counts[row]; ok {
		t.counts[row] = t.spillover
	}
}

// min returns the entry with the smallest count, ties broken by the
// smallest row number so eviction order never depends on map iteration.
func (t *mgTable) min() (minRow, minCount int) {
	first := true
	for row, n := range t.counts {
		if first || n < minCount || (n == minCount && row < minRow) {
			minRow, minCount, first = row, n, false
		}
	}
	return minRow, minCount
}
