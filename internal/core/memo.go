package core

import (
	"ptguard/internal/mac"
	"ptguard/internal/pte"
)

// memoSlots sizes the MAC memo: 1024 direct-mapped slots, about 96 KB per
// guard. The simulator rewrites the same synthetic content at an address on
// every writeback and re-verifies the line last written there on every DRAM
// read, so most MAC inputs repeat; 1024 slots catch most of that reuse
// (DESIGN.md §8) without growing a job's heap by more than the table.
const memoSlots = 1024

// memoSlot holds one memoized MAC: the tag of img at addr. A zero-width tag
// marks an empty slot (real tags are at least one bit wide).
type memoSlot struct {
	addr uint64
	img  [pte.LineBytes]byte
	tag  mac.Tag
}

// lineMAC returns the MAC over the line's masked image at addr and charges
// its cipher work. The tag comes from the MAC memo, a host-side cache of
// the pure function auth.Compute: a slot hits only when both the address
// and the whole masked image match, so a hit returns exactly what Compute
// would. The memo models no hardware: a hit charges the same counters as a
// miss, and callers emit the same trace events and MAC cycles either way.
func (g *Guard) lineMAC(line pte.Line, addr uint64) mac.Tag {
	g.ctr.ChunkEncrypts += uint64(g.auth.Chunks())
	img := maskedImage(line, g.cfg.Format.ProtectedMask)
	if g.memo == nil {
		g.memo = new([memoSlots]memoSlot)
	}
	s := &g.memo[addr/pte.LineBytes%memoSlots]
	if s.tag.Bits() != 0 && s.addr == addr && s.img == img {
		g.memoHits++
		return s.tag
	}
	g.memoMisses++
	s.addr, s.img, s.tag = addr, img, g.auth.Compute(img, addr)
	return s.tag
}
