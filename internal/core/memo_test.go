package core

import (
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// TestLineMACMatchesCompute drives the MAC memo with a random stream of
// repeated inputs, slot conflicts (addresses exactly memoSlots lines apart),
// changed images at memoized addresses, and lines that differ only in
// uncovered bits. Every tag must equal a direct auth.Compute over the
// masked image, and the memo must hit exactly when its direct-mapped slot
// holds the same address and masked image.
func TestLineMACMatchesCompute(t *testing.T) {
	configs := []struct {
		name   string
		mutate func(*Config)
	}{
		{"qarma128-tag96", nil},
		{"qarma128-tag64", func(c *Config) { c.TagBits = 64 }},
		{"qarma64-tag64", func(c *Config) { c.UseQARMA64 = true }},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			g := newTestGuard(t, tc.mutate)
			f := g.cfg.Format
			r := stats.NewRNG(0x3E30)

			// Three slots, four addresses each: every address conflicts
			// with three others. All addresses draw from one pool of three
			// images, so a slot also sees the same image at another
			// address.
			var addrs []uint64
			for slot := uint64(0); slot < 3; slot++ {
				for k := uint64(0); k < 4; k++ {
					addrs = append(addrs, (slot+k*memoSlots)*pte.LineBytes)
				}
			}
			var images [3]pte.Line
			for i := range images {
				for j := range images[i] {
					images[i][j] = pte.Entry(r.Uint64())
				}
			}

			type key struct {
				addr uint64
				img  [pte.LineBytes]byte
			}
			shadow := make(map[uint64]key) // slot -> last input
			var conflicts, sameImage, changed, hits int
			for i := 0; i < 3000; i++ {
				addr := addrs[r.Intn(len(addrs))]
				line := images[r.Intn(len(images))]
				if i == 0 {
					// An all-zero image at address 0 must not hit the
					// empty slot.
					addr, line = 0, pte.Line{}
				}
				if r.Bernoulli(0.3) {
					// Uncovered bits (MAC field, accessed) leave the
					// masked image, and so the memo key, unchanged.
					line[r.Intn(pte.PTEsPerLine)] ^= pte.Entry(f.MACMask | 1<<pte.BitAccessed)
				}
				img := maskedImage(line, f.ProtectedMask)
				slot := addr / pte.LineBytes % memoSlots
				prev, seen := shadow[slot]
				wantHit := seen && prev == key{addr, img}
				if seen && prev.addr != addr {
					conflicts++
					if prev.img == img {
						sameImage++
					}
				}
				if seen && prev.addr == addr && prev.img != img {
					changed++
				}
				shadow[slot] = key{addr, img}

				before := g.memoHits
				got := g.lineMAC(line, addr)
				if want := g.auth.Compute(img, addr); !got.Equal(want) {
					t.Fatalf("op %d: memo tag %x at %#x, Compute gives %x", i, got.Raw(), addr, want.Raw())
				}
				if hit := g.memoHits != before; hit != wantHit {
					t.Fatalf("op %d at %#x: memo hit = %v, want %v", i, addr, hit, wantHit)
				}
				if wantHit {
					hits++
				}
			}
			if g.memoHits+g.memoMisses != 3000 {
				t.Errorf("hits %d + misses %d != 3000 lookups", g.memoHits, g.memoMisses)
			}
			if conflicts == 0 || sameImage == 0 || changed == 0 || hits == 0 {
				t.Errorf("stream exercised %d conflicts (%d with the same image), %d changed images, %d hits; want all > 0",
					conflicts, sameImage, changed, hits)
			}
		})
	}
}
