package core

import (
	"math/bits"

	"ptguard/internal/pte"
)

// gatherFieldInto collects the bits selected by mask from each of the eight
// PTEs in the line, LSB-first within each PTE, PTE 0 first, into a
// little-endian byte stream written to buf. It returns the number of
// significant bytes. With the x86_64 MAC mask this yields the 96-bit pooled
// MAC field of Fig. 2. Taking a caller-owned buffer keeps the read/write
// hot paths allocation-free; a 64-byte buffer always suffices (64 bits per
// PTE x 8 PTEs = 64 bytes at most).
// The gather/scatter loops walk the mask by runs of consecutive set bits,
// not bit by bit: the real masks are a handful of contiguous runs (the
// x86_64 MAC field is one 12-bit run per PTE), so each PTE costs a few
// shift-and-mask steps instead of one iteration per selected bit. Runs are
// capped at 56 bits so a run shifted by the stream's intra-byte offset
// (<= 7) still fits one uint64; longer runs simply take two steps.
func gatherFieldInto(buf *[pte.LineBytes]byte, line pte.Line, mask uint64) int {
	n := bits.OnesCount64(mask) * pte.PTEsPerLine
	nb := (n + 7) / 8
	for i := 0; i < nb; i++ {
		buf[i] = 0
	}
	pos := 0
	for _, e := range line {
		m := mask
		v := uint64(e)
		for m != 0 {
			start := uint(bits.TrailingZeros64(m))
			run := uint(bits.TrailingZeros64(^(m >> start)))
			if run > 56 {
				run = 56
			}
			chunk := v >> start & (1<<run - 1)
			idx := pos >> 3
			merged := chunk << (uint(pos) & 7)
			for w := int(run + uint(pos)&7); w > 0; w -= 8 {
				buf[idx] |= byte(merged)
				merged >>= 8
				idx++
			}
			pos += int(run)
			if start+run >= 64 {
				m = 0
			} else {
				m &^= 1<<(start+run) - 1
			}
		}
	}
	return nb
}

// scatterField writes the bit stream into the mask-selected bits of each
// PTE, inverting gatherFieldInto. Bits past the end of data read as zero.
func scatterField(line pte.Line, mask uint64, data []byte) pte.Line {
	pos := 0
	for i, e := range line {
		v := uint64(e) &^ mask
		m := mask
		for m != 0 {
			start := uint(bits.TrailingZeros64(m))
			run := uint(bits.TrailingZeros64(^(m >> start)))
			if run > 56 {
				run = 56
			}
			off := uint(pos) & 7
			idx := pos >> 3
			var chunk uint64
			shift := uint(0)
			for w := int(run + off); w > 0; w -= 8 {
				if idx < len(data) {
					chunk |= uint64(data[idx]) << shift
				}
				idx++
				shift += 8
			}
			v |= chunk >> off & (1<<run - 1) << start
			pos += int(run)
			if start+run >= 64 {
				m = 0
			} else {
				m &^= 1<<(start+run) - 1
			}
		}
		line[i] = pte.Entry(v)
	}
	return line
}

// flipBit returns line with bit b of PTE i inverted.
func flipBit(line pte.Line, i, b int) pte.Line {
	line[i] = pte.Entry(uint64(line[i]) ^ 1<<uint(b))
	return line
}

// clearField zeroes the mask-selected bits in every PTE of the line.
func clearField(line pte.Line, mask uint64) pte.Line {
	for i := range line {
		line[i] = pte.Entry(uint64(line[i]) &^ mask)
	}
	return line
}

// fieldIsZero reports whether every mask-selected bit in every PTE is zero:
// the bit-pattern match of §IV-B performed on DRAM writes.
func fieldIsZero(line pte.Line, mask uint64) bool {
	for _, e := range line {
		if uint64(e)&mask != 0 {
			return false
		}
	}
	return true
}

// maskedImage returns the 64-byte image used as MAC input: only the bits of
// protectedMask survive in each PTE (Table IV), everything else is zero.
func maskedImage(line pte.Line, protectedMask uint64) [pte.LineBytes]byte {
	var masked pte.Line
	for i, e := range line {
		masked[i] = pte.Entry(uint64(e) & protectedMask)
	}
	return masked.Bytes()
}

// lineIsZero reports whether all 512 bits of the line are zero.
func lineIsZero(line pte.Line) bool {
	for _, e := range line {
		if e != 0 {
			return false
		}
	}
	return true
}
