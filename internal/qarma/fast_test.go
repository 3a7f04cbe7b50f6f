package qarma

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// The table kernel must be bit-for-bit the reference cell-wise
// specification: the MAC tags embedded in PTEs, and therefore every
// correction and security result downstream, depend on the exact values.

// oneRound returns a cipher and tweakey that make run execute exactly fwd
// forward-gather table rounds and bwd backward-gather ones with round
// tweakeys k, then the closing σ, with zero whitening. run reads nothing
// else of the cipher, so this exposes each piece of the kernel to a check
// against the reference composition it replaces.
func oneRound(fwd, bwd int, k Block) (*Cipher, *Tweakey) {
	tk := &Tweakey{n: fwd + bwd}
	for i := 0; i < tk.n; i++ {
		tk.rk[i] = toCols(k)
	}
	return &Cipher{rounds: fwd}, tk
}

func TestFastPrimitivesMatchReference(t *testing.T) {
	// The closing σ: substitute through the τ⁻¹ gather.
	if err := quick.Check(func(b, out Block) bool {
		c, tk := oneRound(0, 0, Block{})
		tk.out = toCols(out)
		return c.run(b, tk) == xorBlocks(subCells(shuffle(b, _tauInv)), out)
	}, nil); err != nil {
		t.Errorf("closing σ != subCells(shuffle(tauInv)): %v", err)
	}
	// A forward table round is M(τ(σ(s))) ⊕ k: the reference forward round
	// diffusion mixColumns∘shuffle(τ) fused with the σ before it.
	if err := quick.Check(func(b, k Block) bool {
		c, tk := oneRound(1, 0, k)
		round := xorBlocks(mixColumns(shuffle(subCells(b), _tau)), k)
		return c.run(b, tk) == subCells(shuffle(round, _tauInv))
	}, nil); err != nil {
		t.Errorf("forward table round != mixColumns(shuffle(subCells, tau)) + k: %v", err)
	}
	// A backward table round is M(σ(s) gathered through τ⁻¹) ⊕ k: the
	// reference backward diffusion shuffle(mixColumns, tauInv) with its τ⁻¹
	// moved into the next gather.
	if err := quick.Check(func(b, k Block) bool {
		c, tk := oneRound(0, 1, k)
		round := xorBlocks(mixColumns(shuffle(subCells(b), _tauInv)), k)
		return c.run(b, tk) == subCells(shuffle(round, _tauInv))
	}, nil); err != nil {
		t.Errorf("backward table round != mixColumns(shuffle(subCells, tauInv)) + k: %v", err)
	}
	if err := quick.Check(func(b Block) bool { return toCols(b).block() == b }, nil); err != nil {
		t.Errorf("cols layout does not round-trip: %v", err)
	}
	if err := quick.Check(func(lo, hi uint64) bool {
		var b, want Block
		binary.LittleEndian.PutUint64(b[:8], lo)
		binary.LittleEndian.PutUint64(b[8:], hi)
		nlo, nhi := advanceWords(lo, hi)
		binary.LittleEndian.PutUint64(want[:8], nlo)
		binary.LittleEndian.PutUint64(want[8:], nhi)
		b0, b1, b2, b3 := tauWords(lo, hi)
		return want == advanceTweak(b) && (cols{b0, b1, b2, b3}) == toCols(shuffle(b, _tau))
	}, nil); err != nil {
		t.Errorf("advanceWords/tauWords != advanceTweak/shuffle(tau): %v", err)
	}

	for _, rounds := range []int{4, DefaultRounds, MaxRounds} {
		c := mustCipher(t, rounds)
		// Every round tweakey is the reference tweakey of its round mapped
		// through that round's linear layer.
		if err := quick.Check(func(tw Block) bool {
			var tk Tweakey
			c.ExpandTweak(&tk, tw)
			return tk == referenceExpand(c, tw)
		}, nil); err != nil {
			t.Errorf("rounds=%d: ExpandTweak != reference expansion: %v", rounds, err)
		}
		// The expansion is linear in the tweak, with a key-free delta.
		other := mustCipherKey(t, rounds, 0x5A)
		if err := quick.Check(func(tw, d Block) bool {
			var got, want, delta, otherDelta Tweakey
			c.ExpandTweak(&got, tw)
			c.TweakDelta(&delta, d)
			got.Xor(&delta)
			c.ExpandTweak(&want, xorBlocks(tw, d))
			other.TweakDelta(&otherDelta, d)
			return got == want && delta == otherDelta
		}, nil); err != nil {
			t.Errorf("rounds=%d: tweak expansion is not linear with a key-free delta: %v", rounds, err)
		}
	}
}

// referenceSchedule is the per-round tweak sequence built with the
// reference advanceTweak only.
func referenceSchedule(rounds int, t Block) []Block {
	tweaks := make([]Block, rounds)
	for i := range tweaks {
		tweaks[i] = t
		t = advanceTweak(t)
	}
	return tweaks
}

// referenceExpand is the encryption Tweakey written against the reference
// primitives and the raw key.
func referenceExpand(c *Cipher, t Block) Tweakey {
	r := c.rounds
	tweaks := referenceSchedule(r, t)
	kAlpha := xorBlocks(c.k0, _alpha)
	tk := Tweakey{
		n:   2*r - 1,
		in:  toCols(xorBlocks(c.w0, xorBlocks(c.k0, tweaks[0]))),
		out: toCols(xorBlocks(c.w1, xorBlocks(kAlpha, tweaks[0]))),
	}
	tk.rk[r-1] = toCols(mixColumns(c.w1))
	for i := 1; i < r; i++ {
		fwd := xorBlocks(xorBlocks(c.k0, _roundConsts[i]), tweaks[i])
		bwd := xorBlocks(xorBlocks(kAlpha, _roundConsts[i]), tweaks[i])
		tk.rk[i-1] = toCols(mixColumns(shuffle(fwd, _tau)))
		tk.rk[2*r-1-i] = toCols(shuffle(bwd, _tau))
	}
	return tk
}

// referenceEncrypt is the round structure written directly against the
// specification primitives and the raw key, sharing no code with the
// kernel it checks.
func referenceEncrypt(c *Cipher, p, t Block) Block {
	tweaks := referenceSchedule(c.rounds, t)
	kAlpha := xorBlocks(c.k0, _alpha)
	s := xorBlocks(p, c.w0)
	for i := 0; i < c.rounds; i++ {
		s = xorBlocks(s, xorBlocks(xorBlocks(c.k0, _roundConsts[i]), tweaks[i]))
		if i > 0 {
			s = mixColumns(shuffle(s, _tau))
		}
		s = subCells(s)
	}
	s = shuffle(s, _tau)
	s = mixColumns(xorBlocks(s, c.w1))
	s = shuffle(s, _tauInv)
	for i := c.rounds - 1; i >= 0; i-- {
		s = subCells(s)
		if i > 0 {
			s = shuffle(mixColumns(s), _tauInv)
		}
		s = xorBlocks(s, xorBlocks(xorBlocks(kAlpha, _roundConsts[i]), tweaks[i]))
	}
	return xorBlocks(s, c.w1)
}

// referenceDecrypt inverts referenceEncrypt step by step: every primitive
// is an involution (or, for shuffle, paired with its inverse), so the
// rounds run backwards with the whitening keys and round keys swapped.
func referenceDecrypt(c *Cipher, ct, t Block) Block {
	tweaks := referenceSchedule(c.rounds, t)
	kAlpha := xorBlocks(c.k0, _alpha)
	s := xorBlocks(ct, c.w1)
	for i := 0; i < c.rounds; i++ {
		s = xorBlocks(s, xorBlocks(xorBlocks(kAlpha, _roundConsts[i]), tweaks[i]))
		if i > 0 {
			s = mixColumns(shuffle(s, _tau))
		}
		s = subCells(s)
	}
	s = shuffle(s, _tau)
	s = xorBlocks(mixColumns(s), c.w1)
	s = shuffle(s, _tauInv)
	for i := c.rounds - 1; i >= 0; i-- {
		s = subCells(s)
		if i > 0 {
			s = shuffle(mixColumns(s), _tauInv)
		}
		s = xorBlocks(s, xorBlocks(xorBlocks(c.k0, _roundConsts[i]), tweaks[i]))
	}
	return xorBlocks(s, c.w0)
}

func mustCipherKey(tb testing.TB, rounds int, seed byte) *Cipher {
	tb.Helper()
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(i*37) + seed
	}
	c, err := NewCipher(key, rounds)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func TestEncryptMatchesReference(t *testing.T) {
	for _, rounds := range []int{4, DefaultRounds, MaxRounds} {
		c := mustCipherKey(t, rounds, 11)
		if err := quick.Check(func(p, tw Block) bool {
			return c.Encrypt(p, tw) == referenceEncrypt(c, p, tw)
		}, nil); err != nil {
			t.Errorf("rounds=%d: Encrypt != reference: %v", rounds, err)
		}
		if err := quick.Check(func(p, tw Block) bool {
			var tk Tweakey
			c.ExpandTweak(&tk, tw)
			return c.EncryptExpanded(p, &tk) == referenceEncrypt(c, p, tw)
		}, nil); err != nil {
			t.Errorf("rounds=%d: EncryptExpanded != reference: %v", rounds, err)
		}
	}
}

// FuzzEncryptMatchesReference drives the kernel with arbitrary keys, round
// counts, blocks and tweaks, checks it against the reference and inverts
// its output with the reference decryption.
func FuzzEncryptMatchesReference(f *testing.F) {
	f.Add(make([]byte, KeySize), uint8(DefaultRounds), make([]byte, BlockSize), make([]byte, BlockSize))
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(MaxRounds), []byte("plaintext block!"), []byte("tweak tweak twk!"))
	f.Fuzz(func(t *testing.T, key []byte, rounds uint8, p, tw []byte) {
		// Short inputs are zero-padded and long ones truncated, so every
		// input exercises the kernel.
		var k [KeySize]byte
		var pb, tb Block
		copy(k[:], key)
		copy(pb[:], p)
		copy(tb[:], tw)
		c, err := NewCipher(k[:], 4+int(rounds)%(MaxRounds-3))
		if err != nil {
			t.Fatal(err)
		}
		ct := c.Encrypt(pb, tb)
		if want := referenceEncrypt(c, pb, tb); ct != want {
			t.Fatalf("rounds=%d: Encrypt = %x, reference %x", c.rounds, ct, want)
		}
		if got := referenceDecrypt(c, ct, tb); got != pb {
			t.Fatalf("rounds=%d: referenceDecrypt(Encrypt(p)) = %x, want %x", c.rounds, got, pb)
		}
	})
}
