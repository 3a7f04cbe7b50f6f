// Package pte models page-table entries and PTE cachelines for the two
// architectures discussed in the paper: x86_64 (Table I) and ARMv8
// (Table II). It also encodes the MAC-protected bit map of Table IV, which
// the PT-Guard mechanism (internal/core) consumes as per-PTE masks.
package pte

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const (
	// LineBytes is the cacheline size: 64 bytes.
	LineBytes = 64
	// PTEsPerLine is the number of 8-byte PTEs per cacheline.
	PTEsPerLine = 8
	// PageShift is log2 of the 4 KB page size used throughout (§III).
	PageShift = 12
	// PageSize is the OS page size in bytes.
	PageSize = 1 << PageShift
	// PFNFieldWidth is the architectural PFN width: 40 bits (4 PB reach).
	PFNFieldWidth = 40
)

// x86_64 PTE bit layout (Table I; PWT/PCD per the Intel SDM).
const (
	BitPresent        = 0
	BitWritable       = 1
	BitUserAccessible = 2
	BitWriteThrough   = 3
	BitCacheDisable   = 4
	BitAccessed       = 5
	BitDirty          = 6
	BitHugePage       = 7
	BitGlobal         = 8
	BitNX             = 63
)

// Field masks for the x86_64 PTE.
const (
	// MaskOSBits covers bits 11:9, usable by the OS.
	MaskOSBits uint64 = 0x7 << 9
	// MaskPFNField covers the architectural PFN field, bits 51:12.
	MaskPFNField uint64 = ((1 << PFNFieldWidth) - 1) << PageShift
	// MaskMAC covers bits 51:40, the 12 unused PFN bits per PTE that hold
	// one eighth of the 96-bit line MAC (Table IV).
	MaskMAC uint64 = 0xFFF << 40
	// MaskIdentifier covers bits 58:52, the 7 reserved bits per PTE that
	// hold one eighth of the 56-bit identifier (§V-A).
	MaskIdentifier uint64 = 0x7F << 52
	// MaskProtKeys covers bits 62:59, the Memory Protection Key domain.
	MaskProtKeys uint64 = 0xF << 59
	// MaskAccessed is the accessed bit, excluded from the MAC because the
	// hardware walker sets it asynchronously (Table IV).
	MaskAccessed uint64 = 1 << BitAccessed
)

// Entry is a single 64-bit x86_64 page-table entry.
type Entry uint64

// Bit reports whether bit n is set.
func (e Entry) Bit(n int) bool { return e>>uint(n)&1 == 1 }

// SetBit returns a copy of e with bit n set to v.
func (e Entry) SetBit(n int, v bool) Entry {
	if v {
		return e | 1<<uint(n)
	}
	return e &^ (1 << uint(n))
}

// Present reports the present bit.
func (e Entry) Present() bool { return e.Bit(BitPresent) }

// Writable reports the writable bit.
func (e Entry) Writable() bool { return e.Bit(BitWritable) }

// Accessed reports the accessed bit.
func (e Entry) Accessed() bool { return e.Bit(BitAccessed) }

// Dirty reports the dirty bit.
func (e Entry) Dirty() bool { return e.Bit(BitDirty) }

// NoExecute reports the NX bit.
func (e Entry) NoExecute() bool { return e.Bit(BitNX) }

// PFN returns the page frame number stored in bits 51:12.
func (e Entry) PFN() uint64 { return uint64(e) & MaskPFNField >> PageShift }

// WithPFN returns a copy of e with the PFN field replaced.
func (e Entry) WithPFN(pfn uint64) Entry {
	return Entry(uint64(e)&^MaskPFNField | pfn<<PageShift&MaskPFNField)
}

// Flags returns the low 12 flag/programmable bits.
func (e Entry) Flags() uint64 { return uint64(e) & 0xFFF }

// String renders the entry for diagnostics.
func (e Entry) String() string {
	return fmt.Sprintf("PTE{pfn=%#x flags=%#03x nx=%t}", e.PFN(), e.Flags(), e.NoExecute())
}

// Line is one 64-byte PTE cacheline: eight 64-bit entries.
type Line [PTEsPerLine]Entry

// LineFromBytes decodes a 64-byte cacheline (little-endian, as in memory).
func LineFromBytes(b [LineBytes]byte) Line {
	var l Line
	for i := range l {
		l[i] = Entry(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return l
}

// Bytes encodes the line to its 64-byte memory image.
func (l Line) Bytes() [LineBytes]byte {
	var b [LineBytes]byte
	for i, e := range l {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(e))
	}
	return b
}

// Format describes, for one architecture and one provisioned physical-memory
// size, which bits of each PTE are protected by the MAC, which hold the MAC,
// and which hold the identifier (Table IV generalised).
type Format struct {
	// Name identifies the architecture, e.g. "x86_64".
	Name string
	// PhysAddrBits is M, the number of bits of the maximum physical
	// address (e.g. 40 for 1 TB, 34 for 16 GB).
	PhysAddrBits int
	// ProtectedMask marks per-PTE bits covered by the MAC computation.
	ProtectedMask uint64
	// MACMask marks per-PTE bits holding 1/8th of the line MAC.
	MACMask uint64
	// IdentifierMask marks per-PTE bits holding 1/8th of the identifier.
	IdentifierMask uint64
	// PFNMask marks the usable PFN bits, (M-1):12 for x86_64.
	PFNMask uint64
	// FlagsMask marks the protected flag bits (used by correction's
	// majority vote, §VI-D step 4).
	FlagsMask uint64
	// AccessedMask marks the hardware-set accessed bit(s), excluded from
	// the MAC (Table IV).
	AccessedMask uint64
}

// FormatX86 returns the x86_64 format of Table IV for a machine whose
// maximum physical address has physAddrBits bits. physAddrBits must lie in
// [PageShift+1, 40]: PT-Guard targets client systems with at most 1 TB of
// DRAM, which leaves the 12 MAC bits per PTE free.
func FormatX86(physAddrBits int) (Format, error) {
	if physAddrBits <= PageShift || physAddrBits > 40 {
		return Format{}, fmt.Errorf("pte: physAddrBits %d outside (12, 40]", physAddrBits)
	}
	pfnMask := (uint64(1)<<(physAddrBits-PageShift) - 1) << PageShift
	// Flags 8:0 except accessed, plus OS bits 11:9 (Table IV rows 1-2),
	// plus protection keys and NX (row 6).
	flags := uint64(0x1FF)&^MaskAccessed | MaskOSBits
	high := MaskProtKeys | 1<<BitNX
	return Format{
		Name:           "x86_64",
		PhysAddrBits:   physAddrBits,
		ProtectedMask:  flags | pfnMask | high,
		MACMask:        MaskMAC,
		IdentifierMask: MaskIdentifier,
		PFNMask:        pfnMask,
		FlagsMask:      flags | high,
		AccessedMask:   MaskAccessed,
	}, nil
}

// MACBitsPerLine returns the MAC capacity of a line under f (96 for x86_64).
func (f Format) MACBitsPerLine() int { return bits.OnesCount64(f.MACMask) * PTEsPerLine }

// IdentifierBitsPerLine returns the identifier capacity (56 for x86_64).
func (f Format) IdentifierBitsPerLine() int { return bits.OnesCount64(f.IdentifierMask) * PTEsPerLine }

// ProtectedBitsPerPTE returns the number of MAC-covered bits per PTE
// (44 for x86_64 with M=40: 28 PFN + 16 flag bits, §VI-D step 2).
func (f Format) ProtectedBitsPerPTE() int { return bits.OnesCount64(f.ProtectedMask) }
