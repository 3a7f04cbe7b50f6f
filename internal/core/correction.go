package core

import (
	"math/bits"

	"ptguard/internal/mac"
	"ptguard/internal/pte"
)

// GMax returns the maximum number of correction guesses the engine can make
// for the configured format. For x86_64 with M=40 this is the paper's 372
// (§VI-D): 1 soft retry + 44·8 flip-and-check + 1 zero reset + 1 flag
// majority + 9 PFN contiguity + 8 combined.
func (g *Guard) GMax() int {
	return 1 + g.cfg.Format.ProtectedBitsPerPTE()*pte.PTEsPerLine + 1 + 1 + 9 + 8
}

// correct implements the hardware-based correction algorithm of §VI-D: a
// sequence of guesses for the true PTE-line value, each validated by a
// soft MAC match (hamming distance <= SoftMatchK). A passing guess is the
// corrected line; a MAC collision would be needed to miscorrect.
func (g *Guard) correct(line pte.Line, addr uint64, stored mac.Tag) (pte.Line, int, bool) {
	f := g.cfg.Format
	k := g.cfg.SoftMatchK
	guesses := 0

	// The guess loop dominates the verify hot path: every candidate is the
	// faulty image with a handful of bits changed, i.e. it differs from the
	// base in at most a couple of cipher chunks. The base image's chunks are
	// enciphered once, and each guess re-enciphers only its dirty chunks:
	// one chunk encryption per step-2 candidate instead of Chunks(). Every
	// guess still counts as one ReadMACCompute (one logical verification);
	// ChunkEncrypts carries the honest cipher-work accounting.
	cc := g.auth.Precompute(maskedImage(line, f.ProtectedMask), addr)
	g.ctr.ChunkEncrypts += uint64(g.auth.Chunks())

	check := func(cand pte.Line) bool {
		guesses++
		if g.cfg.OptZeroMAC && g.isZeroProtected(cand, stored, k) {
			return true
		}
		img := maskedImage(cand, f.ProtectedMask)
		computed, enc := g.auth.ComputeDelta(&cc, &img)
		g.ctr.ChunkEncrypts += uint64(enc)
		g.ctr.ReadMACComputes++
		ok, err := computed.SoftMatch(stored, k)
		return err == nil && ok
	}

	// Step 1: errors only in the MAC — retry with a soft match (§VI-C).
	if check(line) {
		return line, guesses, true
	}

	// Step 2: flip and check every protected bit (single bit-flip in the
	// payload, possibly alongside MAC-bit faults absorbed by soft match).
	// This is the bulk of the search (ProtectedBits x 8 candidates, in
	// (PTE, bit) order). A candidate's masked image is the base image with
	// bit 64i+b flipped, so ComputeFlip scores it from the cache without
	// building the image: one chunk encryption, as check would charge.
	if !g.cfg.DisableFlipAndCheck {
		for i := range line {
			m := f.ProtectedMask
			for m != 0 {
				b := bits.TrailingZeros64(m)
				m &= m - 1
				guesses++
				if g.cfg.OptZeroMAC && g.isZeroProtected(flipBit(line, i, b), stored, k) {
					return flipBit(line, i, b), guesses, true
				}
				g.ctr.ChunkEncrypts++
				g.ctr.ReadMACComputes++
				if ok, err := g.auth.ComputeFlip(&cc, 64*i+b).SoftMatch(stored, k); err == nil && ok {
					return flipBit(line, i, b), guesses, true
				}
			}
		}
	}

	// Step 3: reset almost-zero PTEs — Insight 1: 64% of PTEs are zero, so
	// a PTE with only a few protected bits set is likely a corrupted zero
	// PTE. Subsequent steps build on this zeroed view.
	zeroed := line
	if !g.cfg.DisableZeroReset {
		for i, e := range zeroed {
			n := bits.OnesCount64(uint64(e) & f.ProtectedMask)
			if n > 0 && n <= g.cfg.ZeroResetMaxBits {
				zeroed[i] = pte.Entry(uint64(e) &^ (f.ProtectedMask | f.AccessedMask))
			}
		}
		if check(zeroed) {
			return zeroed, guesses, true
		}
	}

	// Step 4: bitwise majority vote over the flags of non-zero PTEs —
	// Insight 3: >99% of lines have uniform flags.
	flagsFixed := zeroed
	if !g.cfg.DisableFlagVote {
		flagsFixed = g.majorityFlags(zeroed)
		if check(flagsFixed) {
			return flagsFixed, guesses, true
		}
	}

	if !g.cfg.DisableContiguity {
		// Step 5: PFN contiguity — Insight 2: PFNs are ±1 of their
		// neighbours. First a majority vote over the top PFN bits
		// (1 guess), then 8 base reconstructions of the bottom bits.
		topFixed := g.majorityTopPFN(zeroed)
		if check(topFixed) {
			return topFixed, guesses, true
		}
		for base := 0; base < pte.PTEsPerLine; base++ {
			cand, ok := g.contiguityFromBase(zeroed, base)
			if !ok {
				guesses++ // the hardware still burns the guess slot
				continue
			}
			if check(cand) {
				return cand, guesses, true
			}
		}

		// Steps 4∧5 together: PFN and flag bits are independent, so
		// combine the flag majority with each contiguity
		// reconstruction (8 guesses).
		if !g.cfg.DisableFlagVote {
			for base := 0; base < pte.PTEsPerLine; base++ {
				cand, ok := g.contiguityFromBase(flagsFixed, base)
				if !ok {
					guesses++
					continue
				}
				if check(cand) {
					return cand, guesses, true
				}
			}
		}
	}

	return pte.Line{}, guesses, false
}

// majorityFlags returns line with every protected flag bit of each non-zero
// PTE replaced by the bitwise majority across the non-zero PTEs.
func (g *Guard) majorityFlags(line pte.Line) pte.Line {
	f := g.cfg.Format
	var votes [64]int
	nonZero := 0
	for _, e := range line {
		if uint64(e)&f.ProtectedMask == 0 {
			continue
		}
		nonZero++
		m := f.FlagsMask
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			if uint64(e)>>uint(b)&1 == 1 {
				votes[b]++
			}
		}
	}
	if nonZero == 0 {
		return line
	}
	var consensus uint64
	m := f.FlagsMask
	for m != 0 {
		b := bits.TrailingZeros64(m)
		m &= m - 1
		if 2*votes[b] > nonZero {
			consensus |= 1 << uint(b)
		}
	}
	out := line
	for i, e := range out {
		if uint64(e)&f.ProtectedMask == 0 {
			continue
		}
		out[i] = pte.Entry(uint64(e)&^f.FlagsMask | consensus)
	}
	return out
}

// contiguityBottomBits is the span of low PFN bits reconstructed from the
// base PTE in step 5; the paper majority-votes the top 20 of 28 PFN bits
// and rebuilds the bottom 8.
const contiguityBottomBits = 8

// usablePFN extracts only the machine-usable PFN bits. On a protected DRAM
// image the architectural PFN field also carries the embedded MAC (bits
// 51:40), which must never leak into PFN arithmetic.
func usablePFN(e pte.Entry, f pte.Format) uint64 {
	return uint64(e) & f.PFNMask >> pte.PageShift
}

// withUsablePFN replaces only the usable PFN bits, leaving the MAC field and
// everything else intact.
func withUsablePFN(e pte.Entry, f pte.Format, pfn uint64) pte.Entry {
	return pte.Entry(uint64(e)&^f.PFNMask | pfn<<pte.PageShift&f.PFNMask)
}

// majorityTopPFN returns line with the top PFN bits of each non-zero PTE
// replaced by their majority value.
func (g *Guard) majorityTopPFN(line pte.Line) pte.Line {
	f := g.cfg.Format
	width := bits.OnesCount64(f.PFNMask)
	if width <= contiguityBottomBits {
		return line
	}
	topBits := width - contiguityBottomBits
	var votes [64]int // fixed-size: keeps the correction search allocation-free
	nonZero := 0
	for _, e := range line {
		if uint64(e)&f.ProtectedMask == 0 {
			continue
		}
		nonZero++
		top := usablePFN(e, f) >> contiguityBottomBits
		for b := 0; b < topBits; b++ {
			if top>>uint(b)&1 == 1 {
				votes[b]++
			}
		}
	}
	if nonZero == 0 {
		return line
	}
	var consensus uint64
	for b, v := range votes {
		if 2*v > nonZero {
			consensus |= 1 << uint(b)
		}
	}
	out := line
	for i, e := range out {
		if uint64(e)&f.ProtectedMask == 0 {
			continue
		}
		low := usablePFN(e, f) & (1<<contiguityBottomBits - 1)
		out[i] = withUsablePFN(e, f, consensus<<contiguityBottomBits|low)
	}
	return out
}

// contiguityFromBase assumes the base PTE's PFN is correct and rebuilds
// every other non-zero PFN as base ± offset (Guess Strategy 2). It reports
// false when the base PTE is itself zero or the reconstruction would leave
// the PFN range.
func (g *Guard) contiguityFromBase(line pte.Line, base int) (pte.Line, bool) {
	f := g.cfg.Format
	if uint64(line[base])&f.ProtectedMask == 0 {
		return pte.Line{}, false
	}
	width := bits.OnesCount64(f.PFNMask)
	limit := uint64(1) << uint(width)
	basePFN := int64(usablePFN(line[base], f))
	out := line
	for i, e := range out {
		if i == base || uint64(e)&f.ProtectedMask == 0 {
			continue
		}
		v := basePFN + int64(i-base)
		if v < 0 || v >= int64(limit) {
			return pte.Line{}, false
		}
		out[i] = withUsablePFN(e, f, uint64(v))
	}
	return out, true
}
