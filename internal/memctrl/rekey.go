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

	// Collect the stored population first: the sweep touches every line, so
	// the old-key reads ride the guard's batch MAC engine instead of running
	// the cipher line-at-a-time, and the new-key writes store protected
	// lines owed to the new guard, sealed when next read. (This is a cold
	// path; the collection slices are throwaway.)
	var addrs []uint64
	var lines []pte.Line
	c.dev.Lines(func(addr uint64, line pte.Line) {
		addrs = append(addrs, addr)
		lines = append(lines, line)
	})
	stats := RekeyStats{LinesScanned: len(lines)}

	// Read under the old key with data-path semantics: protected lines
	// verify and strip, everything else passes through.
	rres := make([]core.ReadResult, len(lines))
	c.guard.OnReadBatch(rres, lines, addrs, false)

	// Not-stripped lines (unprotected, or colliding lines forwarded
	// verbatim) are rewritten as-is under the new guard so their collision
	// status is re-evaluated; stripped lines re-embed under the new key.
	winput := make([]pte.Line, len(lines))
	for i := range rres {
		if rres[i].Stripped {
			winput[i] = rres[i].Line
		} else {
			winput[i] = lines[i]
		}
	}
	wres := make([]core.WriteResult, len(lines))
	if _, werr := next.OnWriteBatch(wres, winput, addrs); werr != nil {
		return stats, werr
	}
	for i := range wres {
		if rres[i].Stripped && wres[i].Protected {
			stats.Remacced++
		}
		store(c.dev, next, addrs[i], wres[i])
	}
	c.guard = next
	return stats, nil
}
