package qarma

import (
	"errors"
	"fmt"
)

// Block64Size is the QARMA-64 block size in bytes.
const Block64Size = 8

// Key64Size is the QARMA-64 key size: 128 bits (w0 || k0).
const Key64Size = 16

// DefaultRounds64 is the forward round count of the paper-cited QARMA7-64
// operating point.
const DefaultRounds64 = 7

// MaxRounds64 is the largest accepted QARMA-64 forward round count; the
// tweak schedule is sized by it so Encrypt never allocates.
const MaxRounds64 = 8

// Cipher64 is the 64-bit QARMA variant: 16 four-bit cells. It mirrors the
// 128-bit implementation's reflector structure with the width-specific
// components of the QARMA paper: the sigma0 S-box applied per nibble, the
// involutory Almost-MDS circulant M = circ(0, rho^1, rho^2, rho^1) over
// 4-bit cells, and the four-bit tweak LFSR omega.
// Safe for concurrent use.
type Cipher64 struct {
	w0, w1, k0, kAlpha uint64
	rounds             int
}

// alpha64 is the reflector asymmetry constant (from the pi expansion).
const alpha64 = 0xC0AC29B7C97C50DD

// roundConsts64 are per-round constants; c[0] = 0 per QARMA convention.
var _roundConsts64 = [8]uint64{
	0,
	0x13198A2E03707344,
	0xA4093822299F31D0,
	0x082EFA98EC4E6C89,
	0x452821E638D01377,
	0xBE5466CF34E90C6C,
	0x3F84D5B5B5470917,
	0x9216D5D98979FB1B,
}

// NewCipher64 builds a QARMA-64 instance from a 16-byte key (w0 || k0) and
// a forward round count in [4, 8].
func NewCipher64(key []byte, rounds int) (*Cipher64, error) {
	if len(key) != Key64Size {
		return nil, fmt.Errorf("qarma: key must be %d bytes, got %d", Key64Size, len(key))
	}
	if rounds < 4 || rounds > MaxRounds64 {
		return nil, errors.New("qarma: rounds must be in [4, 8]")
	}
	var w0, k0 uint64
	for i := 0; i < 8; i++ {
		w0 = w0<<8 | uint64(key[i])
		k0 = k0<<8 | uint64(key[8+i])
	}
	return &Cipher64{
		w0:     w0,
		w1:     ortho64(w0),
		k0:     k0,
		kAlpha: k0 ^ alpha64,
		rounds: rounds,
	}, nil
}

// Encrypt enciphers the 64-bit block p under tweak t.
func (c *Cipher64) Encrypt(p, t uint64) uint64 {
	tweaks := c.tweakSchedule(t)
	s := p ^ c.w0
	for i := 0; i < c.rounds; i++ {
		s ^= c.k0 ^ _roundConsts64[i] ^ tweaks[i]
		if i > 0 {
			s = mix64(shuffle64(s, _tau))
		}
		s = sub64(s)
	}
	s = shuffle64(s, _tau)
	s = mix64(s ^ c.w1)
	s = shuffle64(s, _tauInv)
	for i := c.rounds - 1; i >= 0; i-- {
		s = sub64(s)
		if i > 0 {
			s = shuffle64(mix64(s), _tauInv)
		}
		s ^= c.kAlpha ^ _roundConsts64[i] ^ tweaks[i]
	}
	return s ^ c.w1
}

// tweakSchedule precomputes the per-round tweak values into a fixed-size
// stack array (only the first c.rounds entries are meaningful), mirroring
// the allocation-free schedule of the 128-bit cipher.
func (c *Cipher64) tweakSchedule(t uint64) (tweaks [MaxRounds64]uint64) {
	for i := 0; i < c.rounds; i++ {
		tweaks[i] = t
		t = advanceTweak64(t)
	}
	return tweaks
}

// cell addressing: cell 0 is the most significant nibble, matching the
// QARMA paper's row-major state layout.
func cell64(s uint64, i int) uint64   { return s >> uint(60-4*i) & 0xF }
func withCell(i int, v uint64) uint64 { return v << uint(60-4*i) }

// sub64 applies sigma0 to every nibble.
func sub64(s uint64) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		out |= withCell(i, uint64(_sigma0[cell64(s, i)]))
	}
	return out
}

// shuffle64 permutes cells: out[i] = s[p[i]].
func shuffle64(s uint64, p [16]int) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		out |= withCell(i, cell64(s, p[i]))
	}
	return out
}

// rotl4 rotates a 4-bit cell left by k.
func rotl4(x uint64, k uint) uint64 { return (x<<k | x>>(4-k)) & 0xF }

// mix64 multiplies each column by the involutory M = circ(0, rho, rho^2,
// rho) over 4-bit cells (the QARMA-64 matrix M4,1).
func mix64(s uint64) uint64 {
	var out uint64
	for col := 0; col < 4; col++ {
		a := cell64(s, col)
		b := cell64(s, col+4)
		c := cell64(s, col+8)
		d := cell64(s, col+12)
		out |= withCell(col, rotl4(b, 1)^rotl4(c, 2)^rotl4(d, 1))
		out |= withCell(col+4, rotl4(c, 1)^rotl4(d, 2)^rotl4(a, 1))
		out |= withCell(col+8, rotl4(d, 1)^rotl4(a, 2)^rotl4(b, 1))
		out |= withCell(col+12, rotl4(a, 1)^rotl4(b, 2)^rotl4(c, 1))
	}
	return out
}

// advanceTweak64 applies the h cell shuffle, then QARMA's four-bit LFSR
// omega on cells {0,1,3,4}: (b3,b2,b1,b0) -> (b0^b1, b3, b2, b1).
func advanceTweak64(t uint64) uint64 {
	t = shuffle64(t, _h)
	for _, i := range _lfsrCells {
		x := cell64(t, i)
		fb := (x ^ x>>1) & 1
		nx := (x>>1 | fb<<3) & 0xF
		t = t&^withCell(i, 0xF) | withCell(i, nx)
	}
	return t
}

// ortho64 is the key orthomorphism o(x) = (x >>> 1) ^ (x >> 63).
func ortho64(w uint64) uint64 {
	return (w>>1 | w<<63) ^ w>>63
}
