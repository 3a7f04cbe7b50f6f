package memctrl

import (
	"errors"
	"fmt"

	"ptguard/internal/core"
	"ptguard/internal/pte"
)

// RekeyStats summarises a full-memory re-key sweep.
type RekeyStats struct {
	// LinesScanned is the number of stored DRAM lines visited.
	LinesScanned int
	// Remacced is the number of protected lines re-embedded under the
	// new key.
	Remacced int
	// Failures counts protected PTE-pattern lines whose old-key check
	// failed during the sweep (bit flips surfaced mid-rekey).
	Failures int
}

// Rekey performs the §IV-F / §VII-B full-memory re-key: every stored line
// is read under the old key (verifying and stripping protected lines) and
// written back under a fresh guard built from newKey. Colliding lines lose
// their CTB entries naturally: under the new key they are (overwhelmingly
// likely) no longer colliding. The controller's guard is replaced on
// success.
//
// The sweep is slow by design — the paper invokes it only when the CTB
// fills up, which requires an active adversary (§VII-B).
func (c *Controller) Rekey(newKey []byte) (RekeyStats, error) {
	if c.guard == nil {
		return RekeyStats{}, errors.New("memctrl: rekey needs a guard")
	}
	cfg := c.guard.Config()
	cfg.Key = newKey
	next, err := core.NewGuard(cfg)
	if err != nil {
		return RekeyStats{}, fmt.Errorf("memctrl: new guard: %w", err)
	}

	// Read every stored line under the old key with data-path semantics:
	// protected lines verify and strip, everything else passes through.
	// Not-stripped lines (unprotected, or colliding lines forwarded
	// verbatim) are rewritten as-is under the new guard so their collision
	// status is re-evaluated; stripped lines re-embed under the new key,
	// stored owed to the new guard and sealed when next read. Nothing is
	// stored until every write has succeeded, so a failed sweep leaves
	// memory and the old guard in place. (This is a cold path; the
	// collection slices are throwaway.)
	var (
		addrs    []uint64
		res      []core.WriteResult
		remacced int
	)
	c.dev.Lines(func(addr uint64, line pte.Line) {
		rd := c.guard.OnRead(line, addr, false)
		if rd.Stripped {
			line = rd.Line
		}
		wr, werr := next.OnWriteUnsealed(line, addr)
		if werr != nil && err == nil {
			err = werr
		}
		if rd.Stripped && wr.Protected {
			remacced++
		}
		addrs, res = append(addrs, addr), append(res, wr)
	})
	stats := RekeyStats{LinesScanned: len(addrs)}
	if err != nil {
		return stats, err
	}
	stats.Remacced = remacced
	for i := range res {
		store(c.dev, next, addrs[i], res[i])
	}
	c.guard = next
	return stats, nil
}
