package mitigate

// Oracle is the upper-bound defense (cf. Ramulator2's OracleRH plugin):
// an exact activation counter per row, with no capacity limit and — the
// decisive part — visibility into the activations caused by mitigative
// refreshes themselves (it implements RefreshObserver). When any row's
// count reaches the threshold its neighbours are refreshed and the count
// clears; because refresh-activations are counted too, the oracle follows
// Half-Double's disturbance chain outward and refreshes distance-2 (and
// further) victims before they ever accumulate a flip threshold's worth
// of disturbance. As long as Threshold is below the device flip
// threshold, no row above threshold is ever missed.
type Oracle struct {
	cfg     Config
	stats   Stats
	counts  map[int]int32
	scratch []int
}

func init() {
	Register("oracle", func(cfg Config) (Mitigator, error) { return NewOracle(cfg) })
}

// NewOracle builds the per-row exact counter.
func NewOracle(cfg Config) (*Oracle, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := validateThreshold(cfg.Threshold); err != nil {
		return nil, err
	}
	return &Oracle{cfg: cfg, counts: make(map[int]int32)}, nil
}

// Name implements Mitigator.
func (o *Oracle) Name() string { return "oracle" }

// observe is the single counting path for regular and refresh-induced
// activations.
func (o *Oracle) observe(bank, row int) []int {
	key := bank*o.cfg.RowsPerBank + row
	n := o.counts[key] + 1
	if int(n) < o.cfg.Threshold {
		o.counts[key] = n
		return nil
	}
	o.counts[key] = 0
	o.scratch = Neighbours(o.scratch[:0], row, o.cfg.RowsPerBank)
	o.stats.Refreshes += uint64(len(o.scratch))
	return o.scratch
}

// OnActivate implements Mitigator.
func (o *Oracle) OnActivate(bank, row int) []int { return o.observe(bank, row) }

// OnMitigativeRefresh implements RefreshObserver: a refresh activates the
// refreshed row, and the oracle counts it like any other activation —
// cascading refreshes outward when a refresh-heavy row itself crosses
// the threshold.
func (o *Oracle) OnMitigativeRefresh(bank, row int) []int { return o.observe(bank, row) }

// OnRefreshWindow implements Mitigator: the device refresh restores every
// row's charge, so the exact counters clear.
func (o *Oracle) OnRefreshWindow() {
	for k := range o.counts {
		delete(o.counts, k)
	}
	o.stats.WindowResets++
}

// Stats implements Mitigator.
func (o *Oracle) Stats() Stats {
	o.stats.TrackedRows = len(o.counts)
	return o.stats
}
