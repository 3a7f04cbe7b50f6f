package qarma

import "encoding/binary"

// This file holds the table-driven kernel behind Encrypt and
// EncryptExpanded. The reference cell-wise primitives (subCells,
// mixColumns, shuffle, advanceTweak) stay in qarma.go as the readable
// specification; TestFastPrimitivesMatchReference and TestKnownAnswers pin
// the kernel to them bit for bit.
//
// In a forward round the work between two S-box layers is σ, add the
// round tweakey k, then the linear layer L = M∘τ. Because L is linear over
// GF(2), L(σ(x) ⊕ k) = L(σ(x)) ⊕ L(k): the tweakey is mapped through L
// once per tweak, and what is left, M∘σ after a cell gather, is a sum of
// one term per input cell. _te tabulates those terms (the AES T-table
// construction), so a round is sixteen table loads gathered through τ or
// τ⁻¹ plus one precomputed tweakey.
//
// The state stays in four uint32 column words (see cols). The backward
// rounds keep it un-shuffled: the τ⁻¹ that ends each backward round is
// folded into the next round's gather, so their tweakeys are mapped through
// τ instead of M∘τ. The r forward rounds, the reflector and the r backward
// rounds of the reference become 2r−1 table rounds and one plain σ:
//
//   - r−1 forward rounds, gather τ, tweakey M(τ(k0 ⊕ c_i ⊕ T_i));
//   - the reflector, gather τ, tweakey M(w1);
//   - r−1 backward rounds, gather τ⁻¹, tweakey τ(kα ⊕ c_i ⊕ T_i);
//   - σ through τ⁻¹, then kα ⊕ c_0 ⊕ T_0 ⊕ w1.
//
// The key material of all of these is folded once per key (keySchedule).
// The tweak schedule T_i = h-shuffle then ω-LFSR applied i times is linear
// too, so the whole expansion of a tweak is linear in it:
// Expand(t ⊕ d) = Expand(t) ⊕ TweakDelta(d), where TweakDelta does not
// depend on the key. A MAC over the four chunks of a line uses this to
// expand its address once.

// cols is a 16-cell block in column words: word c holds column c of the
// 4x4 cell matrix, byte r being cell 4r+c. The kernel's state and every
// expanded tweakey use this layout.
type cols [4]uint32

func toCols(b Block) (s cols) {
	for c := range s {
		s[c] = uint32(b[c]) | uint32(b[c+4])<<8 | uint32(b[c+8])<<16 | uint32(b[c+12])<<24
	}
	return s
}

func (s cols) block() (b Block) {
	for c, w := range s {
		b[c], b[c+4], b[c+8], b[c+12] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	return b
}

func (s *cols) xor(a *cols) {
	s[0] ^= a[0]
	s[1] ^= a[1]
	s[2] ^= a[2]
	s[3] ^= a[3]
}

// _sigma0b is the S-box applied to a whole 8-bit cell (sigma0 on each
// nibble), so substitution is one table load per cell instead of two
// lookups plus shifts.
var _sigma0b = func() (t [256]byte) {
	for v := 0; v < 256; v++ {
		t[v] = _sigma0[v>>4]<<4 | _sigma0[v&0xf]
	}
	return t
}()

// _te[r][v] is the column M adds to its output for a cell of value σ(v)
// in row r of its input, probed from the reference mixColumns.
var _te = func() (t [4][256]uint32) {
	for r := range t {
		for v := range t[r] {
			var in Block
			in[4*r] = _sigma0b[v]
			t[r][v] = toCols(mixColumns(in))[0]
		}
	}
	return t
}()

// advanceWords is advanceTweak on the tweak held as two little-endian
// words (cells 0-7 in lo, 8-15 in hi): the h gather as shifts and masks,
// then the ω LFSR on cells 0, 1, 3 and 4 as one masked word operation.
func advanceWords(lo, hi uint64) (uint64, uint64) {
	nlo := lo>>48&0xff | lo>>40&0xff<<8 | hi>>48&0xff<<16 | hi>>56<<24 | lo<<32
	nhi := lo>>56 | hi>>32&0xffff<<8 | lo>>32&0xff<<24 | hi<<32
	const cells = 0x000000ff_ff00ffff // cells 0, 1, 3 and 4
	x := nlo & cells
	fb := (x>>7 ^ x>>5 ^ x>>4 ^ x>>3) & (cells & 0x01010101_01010101)
	return nlo&^cells | x<<1&(cells&0xfefefefe_fefefefe) | fb, nhi
}

// tauWords returns shuffle(t, τ) in column words for a tweak held as two
// little-endian words: row r of column c is cell τ[4r+c], the gather of
// the forward table rounds.
func tauWords(lo, hi uint64) (b0, b1, b2, b3 uint32) {
	b0 = uint32(lo&0xff) | uint32(hi>>16&0xff)<<8 | uint32(lo>>40&0xff)<<16 | uint32(hi>>56)<<24
	b1 = uint32(hi>>24&0xff) | uint32(lo>>8&0xff)<<8 | uint32(hi>>48&0xff)<<16 | uint32(lo>>32&0xff)<<24
	b2 = uint32(lo>>48&0xff) | uint32(hi>>32&0xff)<<8 | uint32(lo>>24&0xff)<<16 | uint32(hi>>8&0xff)<<24
	b3 = uint32(hi>>40&0xff) | uint32(lo>>56)<<8 | uint32(hi&0xff)<<16 | uint32(lo>>16&0xff)<<24
	return
}

// mixWord applies M to one column word through the round tables: σ is an
// involution, so _te[r][σ(v)] is the plain linear term of v.
func mixWord(w uint32) uint32 {
	return _te[0][_sigma0b[byte(w)]] ^ _te[1][_sigma0b[byte(w>>8)]] ^
		_te[2][_sigma0b[byte(w>>16)]] ^ _te[3][_sigma0b[byte(w>>24)]]
}

// keySchedule is the key half of every round tweakey, already mapped
// through its round's linear layer; fwd[i] and bwd[i] serve round i
// (1 <= i < rounds).
type keySchedule struct {
	in, refl, out cols
	fwd, bwd      [MaxRounds]cols
}

// newKeySchedule builds the schedule that whitens with w0, runs the forward
// rounds under k0, reflects with w1 (mapped through M) and runs the
// backward rounds under kα = k0 ⊕ α before whitening with w1.
func newKeySchedule(rounds int, w0, k0, w1 Block) keySchedule {
	kAlpha := xorBlocks(k0, _alpha)
	ks := keySchedule{
		in:   toCols(xorBlocks(w0, xorBlocks(k0, _roundConsts[0]))),
		refl: toCols(mixColumns(w1)),
		out:  toCols(xorBlocks(w1, xorBlocks(kAlpha, _roundConsts[0]))),
	}
	for i := 1; i < rounds; i++ {
		ks.fwd[i] = toCols(mixColumns(shuffle(xorBlocks(k0, _roundConsts[i]), _tau)))
		ks.bwd[i] = toCols(shuffle(xorBlocks(kAlpha, _roundConsts[i]), _tau))
	}
	return ks
}

// zeroSchedule has no key material: expanding under it gives the linear
// part of a tweak expansion alone.
var zeroSchedule keySchedule

// Tweakey is one tweak expanded for the table kernel: the whitening and
// round tweakeys of a single encryption, each mapped through its round's
// linear layer. A Tweakey is built by ExpandTweak or TweakDelta and is only
// meaningful to the Cipher that built it.
type Tweakey struct {
	n       int // live round tweakeys: 2*rounds - 1
	in, out cols
	rk      [2*MaxRounds - 1]cols
}

// Xor adds d into tk: ExpandTweak(t) followed by Xor(TweakDelta(d)) is
// ExpandTweak(t ^ d). Both must come from the same Cipher.
func (tk *Tweakey) Xor(d *Tweakey) {
	tk.in.xor(&d.in)
	tk.out.xor(&d.out)
	rk, dk := tk.rk[:tk.n], d.rk[:tk.n]
	for i := range rk {
		rk[i].xor(&dk[i])
	}
}

// ExpandTweak sets *tk to the expansion of tweak t, so that
// EncryptExpanded(p, tk) equals Encrypt(p, t).
func (c *Cipher) ExpandTweak(tk *Tweakey, t Block) { c.expand(tk, t, &c.enc) }

// TweakDelta sets *tk to the expansion of d with no key material. The
// expansion is linear in the tweak, so XORing TweakDelta(d) into
// ExpandTweak(t) gives ExpandTweak(t ^ d) without re-running the schedule.
// The result depends on the round count but not on the key.
func (c *Cipher) TweakDelta(tk *Tweakey, d Block) { c.expand(tk, d, &zeroSchedule) }

// EncryptExpanded returns Encrypt(p, t) for the tweak t that tk expands.
func (c *Cipher) EncryptExpanded(p Block, tk *Tweakey) Block { return c.run(p, tk) }

// expand fills tk with the round tweakeys of tweak t under key schedule ks.
func (c *Cipher) expand(tk *Tweakey, t Block, ks *keySchedule) {
	r := c.rounds
	tk.n = 2*r - 1
	tc := toCols(t)
	tk.in, tk.out = ks.in, ks.out
	tk.in.xor(&tc)
	tk.out.xor(&tc)
	tk.rk[r-1] = ks.refl
	lo, hi := binary.LittleEndian.Uint64(t[:8]), binary.LittleEndian.Uint64(t[8:])
	for i := 1; i < r; i++ {
		lo, hi = advanceWords(lo, hi)
		// Backward tweakey τ(T_i), forward tweakey M(τ(T_i)).
		b0, b1, b2, b3 := tauWords(lo, hi)
		kf, kb := &ks.fwd[i], &ks.bwd[i]
		tk.rk[i-1] = cols{mixWord(b0) ^ kf[0], mixWord(b1) ^ kf[1], mixWord(b2) ^ kf[2], mixWord(b3) ^ kf[3]}
		tk.rk[2*r-1-i] = cols{b0 ^ kb[0], b1 ^ kb[1], b2 ^ kb[2], b3 ^ kb[3]}
	}
}

// run is the kernel: it enciphers p through the 2r−1 table rounds and the
// closing σ under the expanded tweak tk. The gathers below are τ and τ⁻¹
// written out per column word.
func (c *Cipher) run(p Block, tk *Tweakey) Block {
	in := toCols(p)
	s0, s1, s2, s3 := in[0]^tk.in[0], in[1]^tk.in[1], in[2]^tk.in[2], in[3]^tk.in[3]
	t0, t1, t2, t3 := &_te[0], &_te[1], &_te[2], &_te[3]
	// Forward rounds and the reflector: input row r of column c is cell
	// τ[4r+c].
	fwd := tk.rk[:c.rounds]
	for i := range fwd {
		k := &fwd[i]
		s0, s1, s2, s3 =
			t0[byte(s0)]^t1[byte(s2>>16)]^t2[byte(s1>>8)]^t3[byte(s3>>24)]^k[0],
			t0[byte(s3>>16)]^t1[byte(s1)]^t2[byte(s2>>24)]^t3[byte(s0>>8)]^k[1],
			t0[byte(s2>>8)]^t1[byte(s0>>24)]^t2[byte(s3)]^t3[byte(s1>>16)]^k[2],
			t0[byte(s1>>24)]^t1[byte(s3>>8)]^t2[byte(s0>>16)]^t3[byte(s2)]^k[3]
	}
	// Backward rounds: input row r of column c is cell τ⁻¹[4r+c].
	bwd := tk.rk[c.rounds:tk.n]
	for i := range bwd {
		k := &bwd[i]
		s0, s1, s2, s3 =
			t0[byte(s0)]^t1[byte(s1>>24)]^t2[byte(s3>>16)]^t3[byte(s2>>8)]^k[0],
			t0[byte(s1>>8)]^t1[byte(s0>>16)]^t2[byte(s2>>24)]^t3[byte(s3)]^k[1],
			t0[byte(s3>>24)]^t1[byte(s2)]^t2[byte(s0>>8)]^t3[byte(s1>>16)]^k[2],
			t0[byte(s2>>16)]^t1[byte(s3>>8)]^t2[byte(s1)]^t3[byte(s0>>24)]^k[3]
	}
	// Closing σ through the same τ⁻¹ gather.
	sb := &_sigma0b
	out := cols{
		uint32(sb[byte(s0)]) | uint32(sb[byte(s1>>24)])<<8 | uint32(sb[byte(s3>>16)])<<16 | uint32(sb[byte(s2>>8)])<<24,
		uint32(sb[byte(s1>>8)]) | uint32(sb[byte(s0>>16)])<<8 | uint32(sb[byte(s2>>24)])<<16 | uint32(sb[byte(s3)])<<24,
		uint32(sb[byte(s3>>24)]) | uint32(sb[byte(s2)])<<8 | uint32(sb[byte(s0>>8)])<<16 | uint32(sb[byte(s1>>16)])<<24,
		uint32(sb[byte(s2>>16)]) | uint32(sb[byte(s3>>8)])<<8 | uint32(sb[byte(s1)])<<16 | uint32(sb[byte(s0>>24)])<<24,
	}
	out.xor(&tk.out)
	return out.block()
}
