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
	// base in at most a couple of 16-byte cipher chunks. Enciphering the
	// base image's chunks once and re-enciphering only each candidate's
	// dirty chunks cuts the cipher work of the x86_64 search (up to 372
	// guesses) by roughly 4x versus a full 4-chunk MAC per guess. Every
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
	// This is the bulk of the search (ProtectedBits x 8 candidates): the
	// candidates are scored in waves of 64 through ComputeDeltaBatch,
	// pooling their dirty chunks into shared sliced cipher passes.
	if !g.cfg.DisableFlipAndCheck {
		if cand, ok := g.flipAndCheckBatched(line, &cc, stored, k, &guesses); ok {
			return cand, guesses, true
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

// flipWave is the candidate wave size of the batched flip-and-check: it
// matches ComputeDeltaBatch's candidate group, and each step-2 candidate
// dirties exactly one cipher chunk, so a full wave fills the 64-lane sliced
// kernel exactly once.
const flipWave = 64

// flipAndCheckBatched is the step-2 search: candidates are generated in
// (PTE, bit) order, scored in waves through ComputeDeltaBatch, and then
// *consumed sequentially* — each candidate charges
// CorrectionGuesses/ReadMACComputes/ChunkEncrypts exactly as check() would,
// and consumption stops at the first match. A wave's remaining lanes are
// speculative cipher work the hardware analog performs in parallel; the
// counters keep the sequential model's honest accounting.
func (g *Guard) flipAndCheckBatched(line pte.Line, cc *mac.ChunkCache, stored mac.Tag, k int, guesses *int) (pte.Line, bool) {
	f := g.cfg.Format
	var cands [flipWave]pte.Line
	var imgs [flipWave][mac.LineBytes]byte
	var tags [flipWave]mac.Tag
	var enc [flipWave]int
	n := 0

	flush := func() (pte.Line, bool) {
		g.auth.ComputeDeltaBatch(tags[:n], enc[:n], cc, imgs[:n])
		g.ctr.MACBatches++
		g.batchHist.Observe(uint64(n))
		for j := 0; j < n; j++ {
			*guesses++
			if g.cfg.OptZeroMAC && g.isZeroProtected(cands[j], stored, k) {
				return cands[j], true
			}
			g.ctr.ChunkEncrypts += uint64(enc[j])
			g.ctr.ReadMACComputes++
			g.ctr.BatchedMACComputes++
			if ok, err := tags[j].SoftMatch(stored, k); err == nil && ok {
				return cands[j], true
			}
		}
		n = 0
		return pte.Line{}, false
	}

	for i := 0; i < pte.PTEsPerLine; i++ {
		m := f.ProtectedMask
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			cand := line
			cand[i] = pte.Entry(uint64(cand[i]) ^ 1<<uint(b))
			cands[n] = cand
			imgs[n] = maskedImage(cand, f.ProtectedMask)
			n++
			if n == flipWave {
				if hit, ok := flush(); ok {
					return hit, true
				}
			}
		}
	}
	if n > 0 {
		if hit, ok := flush(); ok {
			return hit, true
		}
	}
	return pte.Line{}, false
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
