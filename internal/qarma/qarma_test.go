package qarma

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"ptguard/internal/stats"
)

func testKey(tb testing.TB) []byte {
	tb.Helper()
	key := make([]byte, KeySize)
	r := stats.NewRNG(0xC0FFEE)
	for i := range key {
		key[i] = byte(r.Uint64())
	}
	return key
}

func mustCipher(tb testing.TB, rounds int) *Cipher {
	tb.Helper()
	c, err := NewCipher(testKey(tb), rounds)
	if err != nil {
		tb.Fatalf("NewCipher: %v", err)
	}
	return c
}

func randBlock(r *stats.RNG) Block {
	var b Block
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

func TestNewCipherValidation(t *testing.T) {
	tests := []struct {
		name    string
		keyLen  int
		rounds  int
		wantErr bool
	}{
		{name: "valid", keyLen: 32, rounds: 8},
		{name: "short key", keyLen: 16, rounds: 8, wantErr: true},
		{name: "long key", keyLen: 33, rounds: 8, wantErr: true},
		{name: "too few rounds", keyLen: 32, rounds: 3, wantErr: true},
		{name: "too many rounds", keyLen: 32, rounds: 16, wantErr: true},
		{name: "min rounds", keyLen: 32, rounds: 4},
		{name: "max rounds", keyLen: 32, rounds: 15},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewCipher(make([]byte, tt.keyLen), tt.rounds)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewCipher err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for _, rounds := range []int{4, 6, 8, 12, 15} {
		c := mustCipher(t, rounds)
		r := stats.NewRNG(uint64(rounds))
		for i := 0; i < 200; i++ {
			p, tw := randBlock(r), randBlock(r)
			ct := c.Encrypt(p, tw)
			if got := referenceDecrypt(c, ct, tw); got != p {
				t.Fatalf("rounds=%d: referenceDecrypt(Encrypt(p)) != p", rounds)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := mustCipher(t, DefaultRounds)
	f := func(p, tw Block) bool {
		return referenceDecrypt(c, c.Encrypt(p, tw), tw) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncryptionChangesInput(t *testing.T) {
	c := mustCipher(t, DefaultRounds)
	var zero Block
	if c.Encrypt(zero, zero) == zero {
		t.Error("Encrypt(0,0) == 0: cipher is not mixing")
	}
}

func TestTweakSensitivity(t *testing.T) {
	c := mustCipher(t, DefaultRounds)
	r := stats.NewRNG(99)
	p := randBlock(r)
	seen := make(map[Block]bool)
	for i := 0; i < 100; i++ {
		tw := randBlock(r)
		ct := c.Encrypt(p, tw)
		if seen[ct] {
			t.Fatal("tweak collision on random tweaks")
		}
		seen[ct] = true
	}
}

func TestKeySensitivity(t *testing.T) {
	key := testKey(t)
	c1, err := NewCipher(key, DefaultRounds)
	if err != nil {
		t.Fatal(err)
	}
	key2 := make([]byte, KeySize)
	copy(key2, key)
	key2[31] ^= 1 // single key bit flip
	c2, err := NewCipher(key2, DefaultRounds)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	diffBits := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		p, tw := randBlock(r), randBlock(r)
		a, b := c1.Encrypt(p, tw), c2.Encrypt(p, tw)
		diffBits += hamming(a, b)
	}
	avg := float64(diffBits) / trials
	if math.Abs(avg-64) > 6 {
		t.Errorf("1-bit key change flips %.1f/128 output bits on average, want ~64", avg)
	}
}

// TestAvalanche verifies the PRP quality PT-Guard relies on: flipping any
// single plaintext bit flips ~50% of ciphertext bits.
func TestAvalanche(t *testing.T) {
	c := mustCipher(t, DefaultRounds)
	r := stats.NewRNG(7)
	const trials = 64
	total := 0.0
	n := 0
	for i := 0; i < trials; i++ {
		p, tw := randBlock(r), randBlock(r)
		base := c.Encrypt(p, tw)
		bit := r.Intn(128)
		q := p
		q[bit/8] ^= 1 << (bit % 8)
		total += float64(hamming(base, c.Encrypt(q, tw)))
		n++
	}
	avg := total / float64(n)
	if avg < 54 || avg > 74 {
		t.Errorf("avalanche average = %.1f/128 bits, want ~64", avg)
	}
}

// TestBijectivityOnLowEntropy checks distinct plaintexts never collide, even
// for the highly structured near-zero inputs PTE lines produce.
func TestBijectivityOnLowEntropy(t *testing.T) {
	c := mustCipher(t, DefaultRounds)
	var tw Block
	seen := make(map[Block]Block)
	for v := 0; v < 4096; v++ {
		var p Block
		p[0] = byte(v)
		p[1] = byte(v >> 8)
		ct := c.Encrypt(p, tw)
		if prev, ok := seen[ct]; ok {
			t.Fatalf("collision: %v and %v both encrypt to %v", prev, p, ct)
		}
		seen[ct] = p
	}
}

func TestSigma0IsInvolution(t *testing.T) {
	for i, v := range _sigma0 {
		if _sigma0[v] != byte(i) {
			t.Fatalf("sigma0 not an involution at %d", i)
		}
	}
}

func TestSubCellsIsInvolution(t *testing.T) {
	f := func(b Block) bool { return subCells(subCells(b)) == b }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixColumnsIsInvolution(t *testing.T) {
	f := func(b Block) bool { return mixColumns(mixColumns(b)) == b }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleInverse(t *testing.T) {
	f := func(b Block) bool {
		return shuffle(shuffle(b, _tau), _tauInv) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTauIsPermutation(t *testing.T) {
	var seen [16]bool
	for _, v := range _tau {
		if v < 0 || v > 15 || seen[v] {
			t.Fatal("tau is not a permutation")
		}
		seen[v] = true
	}
}

func TestAdvanceTweakIsInjective(t *testing.T) {
	// The LFSR x<<1 | feedback and the cell shuffle are both bijective. The
	// full schedule cycles eventually (like QARMA's own period-15 per-cell
	// LFSR), but must stay collision-free far beyond the <=15 advances a
	// single encryption consumes.
	r := stats.NewRNG(13)
	seen := make(map[Block]bool)
	tw := randBlock(r)
	for i := 0; i < 1000; i++ {
		if seen[tw] {
			t.Fatalf("tweak schedule cycle after %d steps", i)
		}
		seen[tw] = true
		tw = advanceTweak(tw)
	}
}

func TestOrthoIsNotIdentity(t *testing.T) {
	r := stats.NewRNG(17)
	for i := 0; i < 100; i++ {
		w := randBlock(r)
		if ortho(w) == w {
			t.Fatal("ortho fixed point on random input")
		}
	}
}

func hamming(a, b Block) int {
	n := 0
	for i := range a {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

func BenchmarkEncrypt(b *testing.B) {
	c := mustCipher(b, DefaultRounds)
	r := stats.NewRNG(1)
	p, tw := randBlock(r), randBlock(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = c.Encrypt(p, tw)
	}
}
