package mitigate

// TRRSampler models in-DRAM Target Row Refresh as deployed on DDR4: a
// small per-bank sampler table counts activations of the rows it managed
// to capture, and when a captured row crosses the sampler threshold its
// distance-1 neighbours are refreshed. The table is tiny in real devices
// (a handful of entries per bank), which is the TRRespass insight:
// many-sided patterns open more aggressor rows than the sampler can
// track, the excess activations go unsampled (SamplerMisses), and the
// untracked aggressors hammer unprotected (paper §II-B).
type TRRSampler struct {
	cfg   Config
	stats Stats
	// table maps bank -> row -> activation count; each bank holds at
	// most cfg.TableSize entries. A captured entry keeps its slot for
	// the whole refresh window (count resets on mitigation but the slot
	// is not freed), so decoy rows can hog the sampler.
	table map[int]map[int]int
	// scratch is the reused neighbour buffer handed to callers; the
	// engine consumes it before the next OnActivate.
	scratch []int
}

// DefaultSamplerEntries is the per-bank sampler capacity when
// Config.TableSize is zero: small enough that an 8-sided pattern
// overflows it, matching the table sizes inferred for real DDR4 TRR.
const DefaultSamplerEntries = 4

func init() {
	Register("trr", func(cfg Config) (Mitigator, error) { return NewTRRSampler(cfg) })
}

// NewTRRSampler builds the hardware-TRR sampler tracker.
func NewTRRSampler(cfg Config) (*TRRSampler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := validateThreshold(cfg.Threshold); err != nil {
		return nil, err
	}
	if cfg.TableSize == 0 {
		cfg.TableSize = DefaultSamplerEntries
	}
	if cfg.TableSize < 0 {
		return nil, validateThreshold(cfg.TableSize)
	}
	return &TRRSampler{cfg: cfg, table: make(map[int]map[int]int)}, nil
}

// Name implements Mitigator.
func (t *TRRSampler) Name() string { return "trr" }

// OnActivate implements Mitigator: count the activation if the row holds
// (or can claim) a sampler slot; on crossing the threshold, clear the
// counter and refresh both neighbours.
func (t *TRRSampler) OnActivate(bank, row int) []int {
	rows := t.table[bank]
	if rows == nil {
		rows = make(map[int]int)
		t.table[bank] = rows
	}
	n, tracked := rows[row]
	if !tracked {
		if len(rows) >= t.cfg.TableSize {
			// Sampler full: the activation slips past unobserved.
			t.stats.SamplerMisses++
			return nil
		}
		t.stats.TrackedRows++
	}
	n++
	if n < t.cfg.Threshold {
		rows[row] = n
		return nil
	}
	rows[row] = 0
	t.scratch = Neighbours(t.scratch[:0], row, t.cfg.RowsPerBank)
	t.stats.Refreshes += uint64(len(t.scratch))
	return t.scratch
}

// OnRefreshWindow implements Mitigator: the sampler table clears, freeing
// every slot for the next window.
func (t *TRRSampler) OnRefreshWindow() {
	for bank := range t.table {
		delete(t.table, bank)
	}
	t.stats.TrackedRows = 0
	t.stats.WindowResets++
}

// Stats implements Mitigator.
func (t *TRRSampler) Stats() Stats { return t.stats }

// SoftTRR models the software mitigation of Zhang et al. (paper §II-E
// item 3): the kernel uses PMU counters to watch activations near rows it
// knows hold page tables, and re-reads (refreshes) a registered PTE row
// when an adjacent aggressor gets hot. Unlike the hardware sampler it has
// no capacity limit — the kernel can count every row — but it protects
// only registered rows, and like every distance-1 tracker it is blind to
// the disturbance its own refreshes cause (Half-Double, which the paper
// calls out: "the design has the same vulnerabilities as TRR").
type SoftTRR struct {
	cfg   Config
	stats Stats
	// counts maps bank*RowsPerBank+row -> activations since last sample.
	counts map[int]int
	// pteRows is the registered-row bitset over the same index space.
	pteRows []uint64
	scratch []int
}

func init() {
	Register("softtrr", func(cfg Config) (Mitigator, error) { return NewSoftTRR(cfg) })
}

// NewSoftTRR builds the software tracker.
func NewSoftTRR(cfg Config) (*SoftTRR, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := validateThreshold(cfg.Threshold); err != nil {
		return nil, err
	}
	nRows := cfg.Banks * cfg.RowsPerBank
	return &SoftTRR{
		cfg:     cfg,
		counts:  make(map[int]int),
		pteRows: make([]uint64, (nRows+63)/64),
	}, nil
}

// Name implements Mitigator.
func (s *SoftTRR) Name() string { return "softtrr" }

// RegisterRow implements RowRegistrar: the kernel marks (bank, row) as
// holding page tables.
func (s *SoftTRR) RegisterRow(bank, row int) {
	idx := bank*s.cfg.RowsPerBank + row
	s.pteRows[idx/64] |= 1 << (idx % 64)
}

// registered reports whether (bank, row) is in the protected set.
func (s *SoftTRR) registered(bank, row int) bool {
	idx := bank*s.cfg.RowsPerBank + row
	return s.pteRows[idx/64]>>(idx%64)&1 == 1
}

// OnActivate implements Mitigator: every `Threshold` activations of an
// aggressor row, the kernel re-reads whichever of its distance-1
// neighbours are registered PTE rows. Unregistered neighbours get
// nothing — the kernel never looks at them.
func (s *SoftTRR) OnActivate(bank, row int) []int {
	key := bank*s.cfg.RowsPerBank + row
	n := s.counts[key] + 1
	if n < s.cfg.Threshold {
		s.counts[key] = n
		return nil
	}
	s.counts[key] = 0
	var nb [2]int
	s.scratch = s.scratch[:0]
	for _, v := range Neighbours(nb[:0], row, s.cfg.RowsPerBank) {
		if s.registered(bank, v) {
			s.scratch = append(s.scratch, v)
		}
	}
	s.stats.Refreshes += uint64(len(s.scratch))
	return s.scratch
}

// OnRefreshWindow implements Mitigator: the PMU counters reset with the
// device refresh (registered rows persist — the kernel's allocation map
// outlives any window).
func (s *SoftTRR) OnRefreshWindow() {
	for k := range s.counts {
		delete(s.counts, k)
	}
	s.stats.WindowResets++
}

// Stats implements Mitigator.
func (s *SoftTRR) Stats() Stats {
	s.stats.TrackedRows = len(s.counts)
	return s.stats
}
