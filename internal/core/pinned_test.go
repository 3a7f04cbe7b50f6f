package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/bits"
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// correctionSearchDigest pins the correction search end to end: the
// result of every walk read in a fixed, seeded corpus of faulty lines under
// four configurations, and each configuration's final Counters. A change to
// how guesses are scored (cipher kernel, chunk caching, batching) must
// leave it unchanged; only a change meant to move the modelled search (its
// guess order, its strategies or its accounting) may update it, and it
// must say so.
const correctionSearchDigest = "07bd671e63b28b461abe18b688abb93e22b904cd000300e33a073b2269887748"

// pinnedSearchConfigs are the configurations TestCorrectionSearchPinned
// runs: both tag widths, both §V optimizations, and the search without its
// step-2 flip-and-check.
var pinnedSearchConfigs = []struct {
	name   string
	mutate func(*Config)
}{
	{"qarma128-tag96", nil},
	{"qarma128-tag64", func(c *Config) { c.TagBits = 64 }},
	{"zeromac-identifier", func(c *Config) {
		c.OptZeroMAC = true
		c.OptIdentifier = true
		c.Identifier = 0x3C3C3C3C3C3C3C
	}},
	{"no-flip-and-check", func(c *Config) { c.DisableFlipAndCheck = true }},
}

// randomMaskBit returns the position of a uniformly drawn set bit of mask.
func randomMaskBit(r *stats.RNG, mask uint64) int {
	for i := r.Intn(bits.OnesCount64(mask)); i > 0; i-- {
		mask &= mask - 1
	}
	return bits.TrailingZeros64(mask)
}

// TestCorrectionSearchPinned hashes every OnRead(isPTE=true) result of a
// seeded corpus (the line, Corrected, CheckFailed and Guesses) and the
// final Counters into one SHA-256. The corpus cycles through six fault
// kinds on written protected lines: one, two and three protected-bit
// flips, MAC-field flips only, a protected flip alongside MAC-field flips,
// and an all-zero line with one protected bit flipped (under OptZeroMAC,
// step 2's zero-line early return repairs it).
func TestCorrectionSearchPinned(t *testing.T) {
	const linesPerConfig = 48
	h := sha256.New()
	for _, tc := range pinnedSearchConfigs {
		g := correctionGuard(t, tc.mutate)
		f := g.cfg.Format
		r := stats.NewRNG(0x5EA4C4)
		for i := 0; i < linesPerConfig; i++ {
			kind := i % 6
			addr := r.Uint64() & 0xFFFF_FFC0
			var line pte.Line
			switch {
			case kind == 5:
				// All-zero line.
			case i%4 == 1:
				for k := range line {
					line[k] = pte.Entry(r.Uint64() & f.ProtectedMask &^ f.AccessedMask)
				}
			default:
				line = makePTELine(r.Uint64()&0xFFFFF, testFlags, 1+r.Intn(pte.PTEsPerLine))
			}
			faulty := writePTE(t, g, line, addr)
			flip := func(mask uint64) {
				faulty = flipBit(faulty, r.Intn(pte.PTEsPerLine), randomMaskBit(r, mask))
			}
			switch kind {
			case 0, 1, 2:
				for n := 0; n <= kind; n++ {
					flip(f.ProtectedMask)
				}
			case 3:
				for n := 1 + r.Intn(g.cfg.SoftMatchK+2); n > 0; n-- {
					flip(f.MACMask)
				}
			case 4:
				flip(f.ProtectedMask)
				for n := 1 + r.Intn(2); n > 0; n-- {
					flip(f.MACMask)
				}
			case 5:
				flip(f.ProtectedMask)
			}
			rd := g.OnRead(faulty, addr, true)
			hashWords(h, uint64(i), uint64(kind))
			for _, e := range rd.Line {
				hashWords(h, uint64(e))
			}
			hashWords(h, b2u(rd.Corrected), b2u(rd.CheckFailed), uint64(rd.Guesses))
		}
		c := g.Counters()
		h.Write([]byte(tc.name))
		hashWords(h, c.Writes, c.Reads, c.ProtectedWrites, c.WriteMACComputes,
			c.ReadMACComputes, c.ChunkEncrypts, c.PTEWalkChecks, c.VerifyFailures,
			c.Corrections, c.CorrectionGuesses, c.StrippedReads, c.IdentifierSkips,
			c.ZeroFastPathHits, c.CollisionsTracked)
		t.Logf("%s: %d corrections, %d failures, %d guesses, %d chunk encryptions",
			tc.name, c.Corrections, c.VerifyFailures, c.CorrectionGuesses, c.ChunkEncrypts)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != correctionSearchDigest {
		t.Errorf("correction search changed: digest %s, want %s", got, correctionSearchDigest)
	}
}

func hashWords(h hash.Hash, ws ...uint64) {
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
