// Package mitigate is the in-DRAM Rowhammer mitigation zoo: a controller
// plugin interface (modeled on Ramulator2's IControllerPlugin and the
// DRAMsim3 Graphene counter) with a registry, real tracker implementations
// — TRR sampler, SoftTRR, Graphene (Misra-Gries), PARA, and a per-row
// oracle — and a refresh-budget model that charges every mitigative
// refresh against a per-tREFI budget.
//
// The package is deliberately free of DRAM-device dependencies: a tracker
// sees the activation stream as (bank, row) pairs and answers with the
// rows it wants refreshed. The physics — charge loss, the outward
// disturbance of a mitigative refresh (the Half-Double lever), flip
// injection — live in internal/dram's MitigatedHammerer, which drives any
// Mitigator from this registry without an import cycle.
package mitigate

import (
	"errors"
	"fmt"
)

// Mitigator is the controller-plugin interface: the memory controller
// calls OnActivate for every row activation it issues, and the tracker
// answers with the victim rows it wants refreshed right now (nil for
// none). Implementations must be deterministic functions of the
// activation stream and their Config (PARA derives its randomness from
// Config.Seed and the refresh-window index).
//
// Mitigators are not safe for concurrent use: one instance per simulated
// channel, like the device they watch.
type Mitigator interface {
	// Name identifies the plugin in reports and campaign job keys.
	Name() string
	// OnActivate observes one activation of (bank, row) and returns the
	// rows (same bank) to refresh in response. The returned slice is
	// only valid until the next call into the mitigator (trackers reuse
	// a scratch buffer); callers must copy it if they queue refreshes.
	OnActivate(bank, row int) []int
	// OnRefreshWindow marks a tREFW boundary: per-window tracker state
	// (counter tables, sampler slots) resets.
	OnRefreshWindow()
	// Stats snapshots the tracker counters.
	Stats() Stats
}

// RefreshObserver is the optional interface for trackers that also see
// the activations caused by mitigative refreshes themselves. A refresh
// is a row activation of the refreshed row, which is exactly how
// Half-Double pushes disturbance to distance 2: distance-1 trackers
// (TRR, SoftTRR, Graphene, PARA) are blind to it and get defeated; the
// oracle implements this and follows the disturbance outward.
type RefreshObserver interface {
	// OnMitigativeRefresh observes the activation caused by refreshing
	// (bank, row) and may cascade further refreshes.
	OnMitigativeRefresh(bank, row int) []int
}

// RowRegistrar is the optional interface for trackers that protect only
// an explicitly registered row set (SoftTRR watches just the rows the
// kernel placed page tables in).
type RowRegistrar interface {
	// RegisterRow marks (bank, row) as protected.
	RegisterRow(bank, row int)
}

// Stats are the tracker counters every plugin reports. All fields are
// cumulative across refresh windows.
type Stats struct {
	// Refreshes is the number of mitigative refreshes the tracker asked
	// for (before any budget drop).
	Refreshes uint64
	// TrackedRows is the current number of occupied tracker entries.
	TrackedRows int
	// SamplerMisses counts activations the tracker could not attribute
	// to an entry because its table was full (TRR sampler evasion).
	SamplerMisses uint64
	// Evictions counts tracker entries displaced by the replacement
	// policy (Graphene's Misra-Gries spillover swap).
	Evictions uint64
	// WindowResets counts OnRefreshWindow calls.
	WindowResets uint64
}

// Config parameterises tracker construction. Zero values select
// per-tracker defaults documented on each constructor.
type Config struct {
	// Banks and RowsPerBank bound the row index space (used for
	// neighbour clamping and SoftTRR's registered-row bitset).
	Banks, RowsPerBank int
	// Threshold is the activation count at which the tracker mitigates
	// (the sampler threshold for TRR/SoftTRR, the Misra-Gries detection
	// threshold for Graphene, the per-row trip count for the oracle).
	Threshold int
	// TableSize bounds tracker state: sampler entries per bank for TRR,
	// Misra-Gries entries per bank for Graphene. Zero selects defaults.
	TableSize int
	// Prob is PARA's per-side refresh probability per activation.
	Prob float64
	// Seed feeds PARA's per-window derived RNG.
	Seed uint64
}

// validate checks the fields every tracker relies on.
func (c Config) validate() error {
	if c.Banks <= 0 || c.RowsPerBank <= 0 {
		return errors.New("mitigate: config needs positive Banks and RowsPerBank")
	}
	return nil
}

// validateThreshold is the sampler/threshold check the tracker plugins
// share: a mitigation threshold must be positive to mean anything.
func validateThreshold(threshold int) error {
	if threshold <= 0 {
		return errors.New("mitigate: sampler threshold must be positive")
	}
	return nil
}

// Neighbours appends the in-range distance-1 neighbours of row to dst and
// returns it — the shared neighbour-refresh enumeration both TRR-style
// trackers and the dram engine use. The -1 neighbour precedes +1, the
// order the legacy TRR/SoftTRR loops used; equivalence tests pin it.
func Neighbours(dst []int, row, rowsPerBank int) []int {
	for _, d := range [2]int{-1, +1} {
		if v := row + d; v >= 0 && v < rowsPerBank {
			dst = append(dst, v)
		}
	}
	return dst
}

// Factory builds a tracker from a Config.
type Factory func(Config) (Mitigator, error)

// registry maps plugin names to factories. Registration happens in init
// functions, so Names is stable for the process lifetime.
var registry = map[string]Factory{}

// Register adds a plugin factory under name. It panics on duplicates:
// registration is an init-time programming act, not a runtime input.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("mitigate: Register needs a name and a factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("mitigate: duplicate plugin %q", name))
	}
	registry[name] = f
}

// New builds the named plugin. The error lists the registered names so
// CLI flag messages stay self-documenting.
func New(name string, cfg Config) (Mitigator, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("mitigate: unknown mitigation %q (registered: %v)", name, Names())
	}
	return f(cfg)
}

// Names returns the registered plugin names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sortStrings(names)
	return names
}

// sortStrings is an allocation-free insertion sort: the registry holds a
// handful of names and this avoids importing sort just for them.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// None is the no-op mitigator: an unprotected device.
type None struct{ windows uint64 }

func init() {
	Register("none", func(Config) (Mitigator, error) { return &None{}, nil })
}

// Name implements Mitigator.
func (n *None) Name() string { return "none" }

// OnActivate implements Mitigator: it never refreshes.
func (n *None) OnActivate(bank, row int) []int { return nil }

// OnRefreshWindow implements Mitigator.
func (n *None) OnRefreshWindow() { n.windows++ }

// Stats implements Mitigator.
func (n *None) Stats() Stats { return Stats{WindowResets: n.windows} }
