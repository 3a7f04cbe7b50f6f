package qarma

import "testing"

// The cipher is the innermost loop of every MAC computation and correction
// guess; these gates pin the stack-only tweak schedule so a regression back
// to a heap-allocated schedule fails CI immediately.

var (
	sinkBlock Block
	sink64    uint64
)

func TestEncryptDecryptZeroAlloc(t *testing.T) {
	c, err := NewCipher(make([]byte, KeySize), DefaultRounds)
	if err != nil {
		t.Fatal(err)
	}
	p := Block{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	tw := Block{0xAA, 0x55}
	if n := testing.AllocsPerRun(200, func() { sinkBlock = c.Encrypt(p, tw) }); n != 0 {
		t.Errorf("Encrypt allocates %.1f objects/op, want 0", n)
	}
}

func TestEncryptDecryptZeroAllocMaxRounds(t *testing.T) {
	c, err := NewCipher(make([]byte, KeySize), MaxRounds)
	if err != nil {
		t.Fatal(err)
	}
	var p, tw Block
	p[0], tw[15] = 0x7F, 0x80
	if n := testing.AllocsPerRun(100, func() { sinkBlock = c.Encrypt(p, tw) }); n != 0 {
		t.Errorf("Encrypt at MaxRounds allocates %.1f objects/op, want 0", n)
	}
}

func TestCipher64ZeroAlloc(t *testing.T) {
	c, err := NewCipher64(make([]byte, Key64Size), DefaultRounds64)
	if err != nil {
		t.Fatal(err)
	}
	const p, tw = 0x0123456789ABCDEF, 0xFEDCBA9876543210
	if n := testing.AllocsPerRun(200, func() { sink64 = c.Encrypt(p, tw) }); n != 0 {
		t.Errorf("Encrypt64 allocates %.1f objects/op, want 0", n)
	}
}
