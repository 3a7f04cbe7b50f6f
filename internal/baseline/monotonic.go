package baseline

import (
	"errors"

	"ptguard/internal/pte"
)

// MonotonicPointers models the defense of Wu et al. (§II-E item 1, §VIII-C):
// page tables live in DRAM true cells (which only flip 1→0) above a
// physical watermark, and all user pages sit below it. A PFN corrupted by
// true-cell flips can only decrease, so it can never point *up* into the
// page-table region — but nothing protects the other PTE fields.
type MonotonicPointers struct {
	// WatermarkPFN is the first frame of the page-table region.
	WatermarkPFN uint64
}

// NewMonotonicPointers builds the defense with the given watermark.
func NewMonotonicPointers(watermarkPFN uint64) (MonotonicPointers, error) {
	if watermarkPFN == 0 {
		return MonotonicPointers{}, errors.New("baseline: zero watermark")
	}
	return MonotonicPointers{WatermarkPFN: watermarkPFN}, nil
}

// FlipOutcome describes what a bit-flip in a PTE achieves against this
// defense.
type FlipOutcome struct {
	// Prevented reports the defense structurally stops the exploit.
	Prevented bool
	// Reason explains the outcome.
	Reason string
}

// EvaluateFlip analyses a single-bit corruption of a PTE under the
// monotonic-pointer defense. bit is the flipped bit index; the tampered
// entry is the original with that bit inverted (true cells: only 1→0 flips
// occur in the table region).
func (m MonotonicPointers) EvaluateFlip(original pte.Entry, bit int) FlipOutcome {
	if bit < 0 || bit > 63 {
		return FlipOutcome{Prevented: false, Reason: "invalid bit"}
	}
	inPFN := pte.MaskPFNField>>uint(bit)&1 == 1
	if !inPFN {
		// Metadata flips (user/supervisor, writable, NX, MPK) are
		// entirely unprotected: the defense only constrains PFNs.
		return FlipOutcome{Prevented: false, Reason: "metadata bit outside PFN: unprotected"}
	}
	if uint64(original)>>uint(bit)&1 == 0 {
		// A 0→1 flip would be needed to raise the PFN; true cells do
		// not flip that way (modulo the circuit effects the authors
		// themselves caveat).
		return FlipOutcome{Prevented: true, Reason: "0→1 flip cannot occur in true cells"}
	}
	// 1→0 flip: the PFN strictly decreases, moving further below the
	// watermark — it cannot newly reach the page-table region.
	tampered := original.PFN() &^ (1 << uint(bit-pte.PageShift))
	if tampered >= m.WatermarkPFN {
		return FlipOutcome{Prevented: false, Reason: "PFN still above watermark"}
	}
	return FlipOutcome{Prevented: true, Reason: "decreased PFN stays below the watermark"}
}
