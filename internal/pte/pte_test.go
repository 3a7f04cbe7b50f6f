package pte

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestEntryBits(t *testing.T) {
	var e Entry
	e = e.SetBit(BitPresent, true).SetBit(BitWritable, true).SetBit(BitUserAccessible, true)
	if !e.Present() || !e.Writable() || !e.Bit(BitUserAccessible) {
		t.Error("flag setters/getters disagree")
	}
	e = e.SetBit(BitWritable, false)
	if e.Writable() {
		t.Error("SetBit(false) did not clear")
	}
	if e.Accessed() || e.Dirty() || e.NoExecute() {
		t.Error("unset flags report true")
	}
}

func TestEntryPFNRoundTrip(t *testing.T) {
	f := func(raw uint64, pfn uint64) bool {
		pfn &= 1<<PFNFieldWidth - 1
		e := Entry(raw).WithPFN(pfn)
		if e.PFN() != pfn {
			return false
		}
		// PFN update must not disturb non-PFN bits.
		return uint64(e)&^MaskPFNField == raw&^MaskPFNField
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEntryProtectionKey: MaskProtKeys selects the MPK domain in bits
// 62:59 and nothing of the identifier field below it or NX above it.
func TestEntryProtectionKey(t *testing.T) {
	e := Entry(uint64(0xB)<<59 | MaskIdentifier | 1<<BitNX)
	if got := uint64(e) & MaskProtKeys >> 59; got != 0xB {
		t.Errorf("MPK domain = %#x, want 0xB", got)
	}
}

func TestLineBytesRoundTrip(t *testing.T) {
	f := func(vals [8]uint64) bool {
		var l Line
		for i, v := range vals {
			l[i] = Entry(v)
		}
		return LineFromBytes(l.Bytes()) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldMasksAreDisjoint(t *testing.T) {
	// Table IV partitions the PTE: MAC, identifier and accessed bits are
	// never part of the protected set.
	f, err := FormatX86(40)
	if err != nil {
		t.Fatal(err)
	}
	if f.ProtectedMask&f.MACMask != 0 {
		t.Error("protected and MAC masks overlap")
	}
	if f.ProtectedMask&f.IdentifierMask != 0 {
		t.Error("protected and identifier masks overlap")
	}
	if f.MACMask&f.IdentifierMask != 0 {
		t.Error("MAC and identifier masks overlap")
	}
	if f.ProtectedMask&MaskAccessed != 0 {
		t.Error("accessed bit must not be protected (Table IV)")
	}
}

func TestFormatX86TableIVCounts(t *testing.T) {
	// Paper: with M=40 (1 TB), 12 unused PFN bits per PTE pool into a
	// 96-bit MAC, 7 reserved bits per PTE pool into a 56-bit identifier,
	// and flip-and-check covers (28+16) protected bits per PTE (§VI-D).
	f, err := FormatX86(40)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.MACBitsPerLine(); got != 96 {
		t.Errorf("MAC bits per line = %d, want 96", got)
	}
	if got := f.IdentifierBitsPerLine(); got != 56 {
		t.Errorf("identifier bits per line = %d, want 56", got)
	}
	if got := f.ProtectedBitsPerPTE(); got != 44 {
		t.Errorf("protected bits per PTE = %d, want 44 (28 PFN + 16 flags)", got)
	}
	if got := bits.OnesCount64(f.PFNMask); got != 28 {
		t.Errorf("usable PFN bits = %d, want 28", got)
	}
	if got := bits.OnesCount64(f.FlagsMask); got != 16 {
		t.Errorf("protected flag bits = %d, want 16", got)
	}
}

func TestFormatX86SmallerMemory(t *testing.T) {
	// 16 GB machine: M=34, so the PFN uses 22 bits and bits 39:34 are
	// ignored zeros; the MAC field position is unchanged.
	f, err := FormatX86(34)
	if err != nil {
		t.Fatal(err)
	}
	if got := bits.OnesCount64(f.PFNMask); got != 22 {
		t.Errorf("usable PFN bits = %d, want 22", got)
	}
	if f.MACMask != MaskMAC {
		t.Error("MAC mask must stay at bits 51:40")
	}
	if got := f.ProtectedBitsPerPTE(); got != 38 {
		t.Errorf("protected bits per PTE = %d, want 38 (22 PFN + 16 flags)", got)
	}
}

func TestFormatX86Validation(t *testing.T) {
	for _, bad := range []int{0, 12, 41, -3} {
		if _, err := FormatX86(bad); err == nil {
			t.Errorf("FormatX86(%d) expected error", bad)
		}
	}
}

func TestArmEntryPFNRoundTrip(t *testing.T) {
	f := func(raw uint64, pfn uint64) bool {
		pfn &= 1<<40 - 1
		e := ArmEntry(raw).WithPFN(pfn)
		if e.PFN() != pfn {
			return false
		}
		keep := ^(ArmMaskPFNLow | ArmMaskPFNHigh)
		return uint64(e)&keep == raw&keep
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArmEntrySplitPFNFields(t *testing.T) {
	// PFN[39:38] must land in bits 9:8 (Table II).
	e := ArmEntry(0).WithPFN(0x3 << 38)
	if uint64(e)&ArmMaskPFNHigh>>8 != 0x3 {
		t.Errorf("high PFN bits not in 9:8: %#x", uint64(e))
	}
	if uint64(e)&ArmMaskPFNLow != 0 {
		t.Errorf("low PFN field contaminated: %#x", uint64(e))
	}
}

func TestFormatARMv8Counts(t *testing.T) {
	f, err := FormatARMv8(40)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.MACBitsPerLine(); got != 96 {
		t.Errorf("ARMv8 MAC bits per line = %d, want 96", got)
	}
	if got := f.IdentifierBitsPerLine(); got != 48 {
		t.Errorf("ARMv8 identifier bits per line = %d, want 48", got)
	}
	if f.ProtectedMask&f.MACMask != 0 || f.ProtectedMask&f.IdentifierMask != 0 {
		t.Error("ARMv8 masks overlap")
	}
	if f.ProtectedMask>>ArmBitAccessed&1 != 0 {
		t.Error("ARMv8 accessed bit must not be protected")
	}
}

func TestFormatARMv8Validation(t *testing.T) {
	if _, err := FormatARMv8(41); err == nil {
		t.Error("FormatARMv8(41) expected error (needs <=1TB)")
	}
	if _, err := FormatARMv8(12); err == nil {
		t.Error("FormatARMv8(12) expected error")
	}
}
