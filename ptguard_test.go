package ptguard

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

func demoKey() []byte {
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(i*7 + 3)
	}
	return key
}

// demoPTELine builds a kernel-style PTE line image: eight present entries
// with contiguous PFNs and the pattern bits zeroed.
func demoPTELine(basePFN uint64) [LineBytes]byte {
	var line [LineBytes]byte
	for i := 0; i < 8; i++ {
		entry := uint64(0x7) | (basePFN+uint64(i))<<12 // P|W|U
		binary.LittleEndian.PutUint64(line[i*8:], entry)
	}
	return line
}

func TestPublicRoundTrip(t *testing.T) {
	g, err := New(demoKey())
	if err != nil {
		t.Fatal(err)
	}
	line := demoPTELine(0x1234)
	img, info, err := g.ProtectOnWrite(line, 0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Protected {
		t.Fatal("PTE line not protected")
	}
	got, winfo, err := g.VerifyWalkRead(img, 0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if got != line {
		t.Error("round trip mismatch")
	}
	if winfo.Corrected {
		t.Error("clean line reported corrected")
	}
}

func TestPublicDetection(t *testing.T) {
	g, err := New(demoKey())
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := g.ProtectOnWrite(demoPTELine(0x9999), 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	img[2] ^= 0x04 // flip the user-accessible bit of PTE 0
	if _, _, err := g.VerifyWalkRead(img, 0x8000); !errors.Is(err, ErrIntegrityViolation) {
		t.Errorf("err = %v, want ErrIntegrityViolation", err)
	}
}

func TestPublicCorrection(t *testing.T) {
	g, err := New(demoKey(), WithCorrection(4))
	if err != nil {
		t.Fatal(err)
	}
	line := demoPTELine(0x4242)
	img, _, err := g.ProtectOnWrite(line, 0xC000)
	if err != nil {
		t.Fatal(err)
	}
	img[13] ^= 0x10 // PFN bit flip in PTE 1
	got, info, err := g.VerifyWalkRead(img, 0xC000)
	if err != nil {
		t.Fatalf("correctable flip rejected: %v", err)
	}
	if !info.Corrected || got != line {
		t.Error("correction failed or wrong payload")
	}
	if g.MaxCorrectionGuesses() != 372 {
		t.Errorf("GMax = %d, want 372", g.MaxCorrectionGuesses())
	}
}

func TestPublicDataPath(t *testing.T) {
	g, err := New(demoKey(), WithIdentifier(0xA5A5A5A5A5A5A5), WithZeroMAC())
	if err != nil {
		t.Fatal(err)
	}
	if g.SRAMBytes() != 71 {
		t.Errorf("SRAM = %d, want 71 (§V-E)", g.SRAMBytes())
	}
	var data [LineBytes]byte
	data[0] = 0xFF
	data[6] = 0xEE // non-zero MAC-field byte: not a pattern match
	img, info, err := g.ProtectOnWrite(data, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if info.Protected {
		t.Error("dense data line wrongly protected")
	}
	out, stripped := g.FilterDataRead(img, 0x2000)
	if stripped || out != data {
		t.Error("data line altered on read")
	}
}

func TestPublicOptionValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil key accepted")
	}
	if _, err := New(demoKey(), WithPhysAddrBits(99)); err == nil {
		t.Error("bad phys bits accepted")
	}
	if _, err := New(demoKey(), WithMACWidth(1000)); err == nil {
		t.Error("bad MAC width accepted")
	}
	if _, err := New(demoKey(), WithMACWidth(-8)); err == nil || !strings.Contains(err.Error(), "tag width -8") {
		t.Errorf("negative MAC width: err = %v, want it to name the width", err)
	}
	if _, err := New(demoKey(), WithCTBEntries(-3)); err == nil || !strings.Contains(err.Error(), "CTB size -3") {
		t.Errorf("negative CTB size: err = %v, want it to name the size", err)
	}
	if _, err := New(demoKey(), WithMACLatency(-5)); err == nil || !strings.Contains(err.Error(), "MAC latency -5") {
		t.Errorf("negative MAC latency: err = %v, want it to name the latency", err)
	}
}

func TestPublicSecurityModel(t *testing.T) {
	nEff, err := EffectiveMACBits(96, 4, 372)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nEff-66) > 1 {
		t.Errorf("n_eff = %v, want ~66", nEff)
	}
	p, err := UncorrectableMACProb(96, 4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if p >= 0.01 {
		t.Errorf("uncorrectable = %v, want < 1%%", p)
	}
	if y := AttackYears(66, 50); y < 1e4 {
		t.Errorf("attack years = %v, want > 1e4", y)
	}
}

func TestPublicWorkloads(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 25 {
		t.Fatalf("workloads = %d, want 25", len(names))
	}
	res, err := RunWorkload("leela", ModeBaseline, 20_000, 50_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 50_000 || res.IPC <= 0 {
		t.Errorf("result = %+v", res)
	}
	if _, err := RunWorkload("doom", ModeBaseline, 0, 1000, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestPublicCompareWorkload(t *testing.T) {
	cmp, err := CompareWorkload("xalancbmk", 50_000, 100_000, 7, 0, ModePTGuard)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.SlowdownPct[ModePTGuard] <= 0 {
		t.Errorf("slowdown = %v, want positive", cmp.SlowdownPct[ModePTGuard])
	}
}

func TestPublicAttackDemos(t *testing.T) {
	out, err := DemoPrivilegeEscalation(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.ExploitSucceeded {
		t.Errorf("unprotected exploit failed: %s", out.Description)
	}
	out, err = DemoPrivilegeEscalation(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected || out.ExploitSucceeded {
		t.Errorf("PT-Guard demo outcome: %+v", out)
	}
	out, err = DemoMetadataAttack(true, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Errorf("metadata attack not detected: %s", out.Description)
	}
	if _, err := DemoMetadataAttack(true, 99, 1); err == nil {
		t.Error("bad bit accepted")
	}
}

// TestPublicMACWidth64 drives §VII-A's 64-bit design point through
// WithMACWidth: the paper's MAC truncated to 64 bits. At M = 40 each PTE
// carries 12 MAC bits (40-51), so a 64-bit tag fills PTEs 0-4 and the low
// four MAC bits of PTE 5, matches the 96-bit guard's tag there and leaves
// the rest of the MAC field zero. The guard still round-trips and still
// catches tampering.
func TestPublicMACWidth64(t *testing.T) {
	full, err := New(demoKey())
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(demoKey(), WithMACWidth(64))
	if err != nil {
		t.Fatal(err)
	}
	line := demoPTELine(0x1111)
	img96, _, err := full.ProtectOnWrite(line, 0x6000)
	if err != nil {
		t.Fatal(err)
	}
	img, info, err := g.ProtectOnWrite(line, 0x6000)
	if err != nil || !info.Protected {
		t.Fatalf("protect: %+v err=%v", info, err)
	}
	const macField = uint64(0xFFF) << 40
	for i := 0; i < 8; i++ {
		n := min(max(64-12*i, 0), 12) // tag bits stored in PTE i
		kept := (uint64(1)<<n - 1) << 40
		e96 := binary.LittleEndian.Uint64(img96[8*i:])
		if got, want := binary.LittleEndian.Uint64(img[8*i:]), e96&^(macField&^kept); got != want {
			t.Errorf("PTE %d: 64-bit image %#x, want the 96-bit image truncated, %#x", i, got, want)
		}
	}
	got, _, err := g.VerifyWalkRead(img, 0x6000)
	if err != nil || got != line {
		t.Fatalf("64-bit MAC round trip: %v", err)
	}
	img[0] ^= 2
	if _, _, err := g.VerifyWalkRead(img, 0x6000); !errors.Is(err, ErrIntegrityViolation) {
		t.Errorf("64-bit MAC missed tampering: %v", err)
	}
}
