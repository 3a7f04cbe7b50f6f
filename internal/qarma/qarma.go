// Package qarma implements a 128-bit tweakable block cipher following the
// QARMA reflector construction (Avanzi, ToSC 2017), which PT-Guard uses as
// its MAC primitive (paper §IV-F).
//
// The implementation is structurally faithful to QARMA-128: a 16-cell
// (8-bit cells) state, r forward rounds, a central involutory
// pseudo-reflector, and r mirrored backward rounds keyed with k0 XOR alpha;
// cell substitution uses the involutory QARMA sigma0 S-box applied
// nibble-wise, diffusion uses the involutory Almost-MDS circulant
// M = circ(0, rho^1, rho^4, rho^5) over 8-bit cells, and the tweak advances
// through the QARMA h cell-shuffle plus an LFSR on cells {0,1,3,4}.
//
// It is NOT a bit-exact port of the published QARMA-128 test vectors (the
// round constants and the LFSR polynomial are fixed here, and the key
// specialisation differs); PT-Guard's security and correction results depend
// only on the cipher being a deterministic keyed pseudo-random permutation,
// which the package tests verify statistically (bijectivity, avalanche, key
// and tweak sensitivity).
package qarma

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// BlockSize is the cipher block size in bytes (128-bit block).
const BlockSize = 16

// KeySize is the cipher key size in bytes (256-bit key, w0 || k0).
const KeySize = 32

// DefaultRounds is the number of forward rounds; with the mirrored backward
// rounds and the central reflector this corresponds to the paper's
// "18-round QARMA-128" operating point (8 + 2 central + 8).
const DefaultRounds = 8

// MaxRounds is the largest accepted forward round count. The tweak schedule
// is sized by it so Encrypt/Decrypt work entirely on the stack.
const MaxRounds = 15

// Block is a 128-bit cipher block, stored as 16 eight-bit cells.
type Block [BlockSize]byte

// sigma0 is QARMA's involutory 4-bit S-box sigma0, applied independently to
// both nibbles of each 8-bit cell.
var _sigma0 = [16]byte{0, 14, 2, 10, 9, 15, 8, 11, 6, 4, 3, 7, 13, 12, 1, 5}

// _tau is QARMA's cell shuffle (the MIDORI permutation); _tauInv is its
// inverse.
var (
	_tau    = [16]int{0, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2}
	_tauInv = invertPerm(_tau)
)

// _h is QARMA's tweak cell shuffle; applied before the tweak LFSR each round.
var _h = [16]int{6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11}

// _lfsrCells are the tweak cells updated by the LFSR omega each round.
var _lfsrCells = [4]int{0, 1, 3, 4}

// Round constants: c[0] is zero (QARMA convention); the rest are fixed
// 128-bit constants from the hexadecimal expansion of pi.
var _roundConsts = [16]Block{
	{},
	{0x24, 0x3f, 0x6a, 0x88, 0x85, 0xa3, 0x08, 0xd3, 0x13, 0x19, 0x8a, 0x2e, 0x03, 0x70, 0x73, 0x44},
	{0xa4, 0x09, 0x38, 0x22, 0x29, 0x9f, 0x31, 0xd0, 0x08, 0x2e, 0xfa, 0x98, 0xec, 0x4e, 0x6c, 0x89},
	{0x45, 0x28, 0x21, 0xe6, 0x38, 0xd0, 0x13, 0x77, 0xbe, 0x54, 0x66, 0xcf, 0x34, 0xe9, 0x0c, 0x6c},
	{0xc0, 0xac, 0x29, 0xb7, 0xc9, 0x7c, 0x50, 0xdd, 0x3f, 0x84, 0xd5, 0xb5, 0xb5, 0x47, 0x09, 0x17},
	{0x92, 0x16, 0xd5, 0xd9, 0x89, 0x79, 0xfb, 0x1b, 0xd1, 0x31, 0x0b, 0xa6, 0x98, 0xdf, 0xb5, 0xac},
	{0x2f, 0xfd, 0x72, 0xdb, 0xd0, 0x1a, 0xdf, 0xb7, 0xb8, 0xe1, 0xaf, 0xed, 0x6a, 0x26, 0x7e, 0x96},
	{0xba, 0x7c, 0x90, 0x45, 0xf1, 0x2c, 0x7f, 0x99, 0x24, 0xa1, 0x99, 0x47, 0xb3, 0x91, 0x6c, 0xf7},
	{0x08, 0x01, 0xf2, 0xe2, 0x85, 0x8e, 0xfc, 0x16, 0x63, 0x69, 0x20, 0xd8, 0x71, 0x57, 0x4e, 0x69},
	{0xa4, 0x58, 0xfe, 0xa3, 0xf4, 0x93, 0x3d, 0x7e, 0x0d, 0x95, 0x74, 0x8f, 0x72, 0x8e, 0xb6, 0x58},
	{0x71, 0x8b, 0xcd, 0x58, 0x82, 0x15, 0x4a, 0xee, 0x7b, 0x54, 0xa4, 0x1d, 0xc2, 0x5a, 0x59, 0xb5},
	{0x9c, 0x30, 0xd5, 0x39, 0x2a, 0xf2, 0x60, 0x13, 0xc5, 0xd1, 0xb0, 0x23, 0x28, 0x60, 0x85, 0xf0},
	{0xca, 0x41, 0x79, 0x18, 0xb8, 0xdb, 0x38, 0xef, 0x8e, 0x79, 0xdc, 0xb0, 0x60, 0x3a, 0x18, 0x0e},
	{0x6c, 0x9e, 0x0e, 0x8b, 0xb0, 0x1e, 0x8a, 0x3e, 0xd7, 0x15, 0x77, 0xc1, 0xbd, 0x31, 0x4b, 0x27},
	{0x78, 0xaf, 0x2f, 0xda, 0x55, 0x60, 0x5c, 0x60, 0xe6, 0x55, 0x25, 0xf3, 0xaa, 0x55, 0xab, 0x94},
	{0x57, 0x48, 0x98, 0x62, 0x63, 0xe8, 0x14, 0x40, 0x55, 0xca, 0x39, 0x6a, 0x2a, 0xab, 0x10, 0xb6},
}

// _alpha is the reflector asymmetry constant separating the forward and
// backward round keys.
var _alpha = Block{0xc0, 0xac, 0x29, 0xb7, 0xc9, 0x7c, 0x50, 0xdd, 0x3f, 0x84, 0xd5, 0xb5, 0xb5, 0x47, 0x09, 0x17}

// Cipher is an instance of the tweakable block cipher with a fixed key.
// It is safe for concurrent use: all methods are read-only on the receiver.
type Cipher struct {
	w0, w1, k0 Block
	rounds     int
	// enc and dec are the key halves of the table kernel's round tweakeys
	// (qarma_fast.go), folded through the linear layers once at key setup.
	enc, dec keySchedule
	// sk is the plane-mask key expansion consumed by the bit-sliced
	// EncryptBlocks kernel, built once at key setup.
	sk *slicedKeys128
}

// NewCipher builds a cipher from a 256-bit key (w0 || k0) and a forward
// round count in [4, 15]. Use DefaultRounds for the paper's operating point.
func NewCipher(key []byte, rounds int) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("qarma: key must be %d bytes, got %d", KeySize, len(key))
	}
	if rounds < 4 || rounds > MaxRounds {
		return nil, errors.New("qarma: rounds must be in [4, 15]")
	}
	c := &Cipher{rounds: rounds}
	copy(c.w0[:], key[:16])
	copy(c.k0[:], key[16:])
	c.w1 = ortho(c.w0)
	kAlpha := xorBlocks(c.k0, _alpha)
	c.enc = newKeySchedule(rounds, c.w0, c.k0, mixColumns(c.w1), kAlpha, c.w1)
	c.dec = newKeySchedule(rounds, c.w1, kAlpha, c.w1, c.k0, c.w0)
	c.sk = newSlicedKeys128(c)
	return c, nil
}

// Encrypt returns the encryption of block p under tweak t.
func (c *Cipher) Encrypt(p, t Block) Block {
	var tk Tweakey
	c.expand(&tk, t, &c.enc)
	return c.run(p, &tk)
}

// Decrypt inverts Encrypt for the same tweak.
func (c *Cipher) Decrypt(ct, t Block) Block {
	var tk Tweakey
	c.expand(&tk, t, &c.dec)
	return c.run(ct, &tk)
}

// subCells applies the involutory S-box to each cell, nibble-wise.
func subCells(s Block) Block {
	var out Block
	for i, v := range s {
		out[i] = _sigma0[v>>4]<<4 | _sigma0[v&0xf]
	}
	return out
}

// shuffle permutes cells: out[i] = s[p[i]].
func shuffle(s Block, p [16]int) Block {
	var out Block
	for i := range out {
		out[i] = s[p[i]]
	}
	return out
}

// rotl8 rotates an 8-bit cell left by k.
func rotl8(x byte, k uint) byte { return x<<k | x>>(8-k) }

// mixColumns multiplies each 4-cell column by the involutory Almost-MDS
// circulant M = circ(0, rho^1, rho^4, rho^5), where rho is rotate-left-by-1
// on the 8-bit cell. M^2 = circ(rho^8, 0, rho^2+rho^10, 0) = I over GF(2).
func mixColumns(s Block) Block {
	var out Block
	for col := 0; col < 4; col++ {
		a, b, c, d := s[col], s[col+4], s[col+8], s[col+12]
		out[col] = rotl8(b, 1) ^ rotl8(c, 4) ^ rotl8(d, 5)
		out[col+4] = rotl8(c, 1) ^ rotl8(d, 4) ^ rotl8(a, 5)
		out[col+8] = rotl8(d, 1) ^ rotl8(a, 4) ^ rotl8(b, 5)
		out[col+12] = rotl8(a, 1) ^ rotl8(b, 4) ^ rotl8(c, 5)
	}
	return out
}

// advanceTweak applies the h cell shuffle followed by the omega LFSR on
// cells {0, 1, 3, 4}: x -> (x << 1) | (x7 ^ x5 ^ x4 ^ x3), the x^8 + x^6 +
// x^5 + x^4 + 1 polynomial.
func advanceTweak(t Block) Block {
	t = shuffle(t, _h)
	for _, i := range _lfsrCells {
		x := t[i]
		fb := (x>>7 ^ x>>5 ^ x>>4 ^ x>>3) & 1
		t[i] = x<<1 | fb
	}
	return t
}

// ortho is QARMA's key orthomorphism o(x) = (x >>> 1) XOR (x >> 127) over
// the 128-bit value, deriving the second whitening key.
func ortho(w Block) Block {
	hi := binary.BigEndian.Uint64(w[:8])
	lo := binary.BigEndian.Uint64(w[8:])
	msb := hi >> 63
	nhi := hi>>1 | lo<<63
	nlo := lo>>1 | hi<<63
	nlo ^= msb
	var out Block
	binary.BigEndian.PutUint64(out[:8], nhi)
	binary.BigEndian.PutUint64(out[8:], nlo)
	return out
}

func xorBlocks(a, b Block) Block {
	var out Block
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}

func invertPerm(p [16]int) [16]int {
	var inv [16]int
	for i, v := range p {
		inv[v] = i
	}
	return inv
}
