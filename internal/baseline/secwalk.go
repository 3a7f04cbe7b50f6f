// Package baseline implements the prior page-table protections PT-Guard is
// compared against (§II-E, §VIII): SecWalk-style error-detection codes,
// monotonic pointers and SECDED ECC. Each exposes the hooks the attack
// experiments need to show where the defense holds and where it breaks.
package baseline

import (
	"errors"
	"math/bits"

	"ptguard/internal/pte"
)

// StorageOverheadPct is the memory share of the conventional integrity
// design PT-Guard avoids (§II-F, §VIII-D): a 64-bit MAC per 64-byte line
// kept in a separate memory region, 8 bytes per 64.
const StorageOverheadPct = 12.5

// EDCBits is SecWalk's per-PTE error-detection-code width (§II-E: "with
// limited space within a PTE, SecWalk is only able to store a 25-bit EDC").
const EDCBits = 25

// secwalkPoly is the generator polynomial of the 25-bit CRC, x^25 + x^23 +
// x^21 + x^11 + x^2 + 1 (an arbitrary fixed dense polynomial; the defense's
// weakness is structural, not polynomial-specific).
const secwalkPoly uint64 = 1<<25 | 1<<23 | 1<<21 | 1<<11 | 1<<2 | 1

// SecWalk models the SecWalk defense: a 25-bit linear (CRC) code over each
// 64-bit PTE payload, stored alongside the entry. Being linear and
// non-cryptographic, any error pattern that is a multiple of the generator
// polynomial passes the check — the ECCploit-style structural weakness the
// paper cites (§II-E item 2).
type SecWalk struct{}

// Checksum computes the 25-bit EDC of a PTE payload by polynomial long
// division: the remainder of the payload against the generator.
func (SecWalk) Checksum(e pte.Entry) uint32 {
	v := uint64(e)
	var rem uint64
	for i := 63; i >= 0; i-- {
		rem <<= 1
		if v>>uint(i)&1 == 1 {
			rem |= 1
		}
		if rem>>EDCBits&1 == 1 {
			rem ^= secwalkPoly
		}
	}
	return uint32(rem & (1<<EDCBits - 1))
}

// Verify reports whether the stored EDC matches the (possibly tampered)
// entry.
func (s SecWalk) Verify(e pte.Entry, storedEDC uint32) bool {
	return s.Checksum(e) == storedEDC
}

// Detects reports whether flipping the given payload bits of e would be
// caught: the EDC is recomputed over the tampered entry and compared.
func (s SecWalk) Detects(e pte.Entry, flipBits []int) bool {
	stored := s.Checksum(e)
	tampered := e
	for _, b := range flipBits {
		tampered = pte.Entry(uint64(tampered) ^ 1<<uint(b%64))
	}
	return !s.Verify(tampered, stored)
}

// CraftEscape returns an error pattern (bit positions within a 64-bit PTE)
// that the EDC cannot detect: a shifted copy of the generator polynomial,
// whose remainder is zero by construction. It demonstrates the surgical
// bit-flip attack of §II-E; the pattern has more than 4 flips, beyond
// SecWalk's guarantee.
func (SecWalk) CraftEscape(shift int) ([]int, error) {
	if shift < 0 || shift > 63-26 {
		return nil, errors.New("baseline: shift leaves the PTE payload")
	}
	var out []int
	p := secwalkPoly
	for p != 0 {
		b := bits.TrailingZeros64(p)
		p &= p - 1
		out = append(out, b+shift)
	}
	return out, nil
}
