package qarma

// This file holds the bit-sliced batch kernel behind EncryptBlocks: 64
// cipher blocks are transposed so plane p (one uint64) carries bit p of all
// 64 lanes, turning every cell shuffle and rotate into a compile-time plane
// re-index and the S-box into a short boolean circuit evaluated once for
// all lanes. One sliced pass over 64 blocks replaces 64 scalar Encrypt
// calls.
//
// Every linear layer (mixColumns∘tau, tauInv∘mixColumns, the tweak
// h-shuffle + LFSR) is GF(2)-linear over the state, so its plane-level
// wiring is derived at init by probing the reference primitives in qarma.go
// with single-bit inputs — the sliced kernel cannot drift from the
// specification, and TestSlicedTablesShape pins the derived structure. The
// only nonlinear step, the sigma0 S-box, is the hand-factored ANF circuit
// sigma0Planes, pinned against the _sigma0 table by TestSigma0Circuit.

// slicedLanes is the kernel width: one plane word carries one bit from each
// of 64 lanes.
const slicedLanes = 64

// minSliced128 and minSliced64 are the batch sizes below which the scalar
// loop beats the sliced kernel (a sliced pass costs the same regardless of
// how many of its 64 lanes are live). Crossovers measured by
// BenchmarkEncryptBlocks128 and BenchmarkEncryptBlocks64 (EXPERIMENTS.md
// has the 128-bit table); the exact value is not load-bearing for
// correctness (EncryptBlocks is bit-identical either way).
const (
	minSliced128 = 40
	minSliced64  = 4
)

// transpose64 transposes the 64x64 bit matrix held in a, where bit p of
// word L becomes bit L of word p (LSB-first on both axes). Standard
// mask-and-shift butterfly; self-inverse.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; j, m = j>>1, m^(m<<(j>>1)) {
		for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
			t := (a[k]>>j ^ a[k+int(j)]) & m
			a[k] ^= t << j
			a[k+int(j)] ^= t
		}
	}
}

// sigma0Planes evaluates the involutory sigma0 S-box on one nibble group:
// plane xi carries input bit i of 64 lanes, the returned planes carry the
// output bits. Hand-factored from the algebraic normal form of _sigma0
// (9 ANDs, 20 XORs); TestSigma0Circuit pins it against the table.
func sigma0Planes(x0, x1, x2, x3 uint64) (y0, y1, y2, y3 uint64) {
	t01 := x0 & x1
	t12 := x1 & x2
	t13 := x1 & x3
	t23 := x2 & x3
	t02 := x0 & x2
	t03 := x0 & x3
	t012 := x0 & t12
	t023 := x0 & t23
	t123 := x1 & t23
	y0 = x2 ^ t12 ^ t012 ^ t13 ^ t023
	y1 = y0 ^ x0 ^ x1 ^ x2 ^ x3 ^ t01 ^ t23 ^ t123
	y2 = x0 ^ t01 ^ x3 ^ t03 ^ t13
	y3 = x0 ^ x2 ^ t02 ^ t03 ^ t023 ^ t123
	return
}

// xorFix is one LFSR-touched output plane of a tweak advance: out[q] is the
// XOR of n source planes instead of a plain move.
type xorFix struct {
	q   uint8
	n   uint8
	src [4]uint8
}

// advTab is a probed tweak-advance layer: a plane permutation plus the few
// LFSR feedback planes that XOR multiple sources.
type advTab struct {
	perm []uint8
	fix  []xorFix
}

// probeLin128 applies f to each single-bit 128-bit input and returns, per
// output plane, the list of input planes feeding it. Plane p is bit p&7 of
// byte p>>3, matching the little-endian uint64 lane view of the fast path.
func probeLin128(f func(Block) Block) [][]uint8 {
	src := make([][]uint8, 128)
	for p := 0; p < 128; p++ {
		var in Block
		in[p>>3] = 1 << (p & 7)
		out := f(in)
		for q := 0; q < 128; q++ {
			if out[q>>3]>>(q&7)&1 == 1 {
				src[q] = append(src[q], uint8(p))
			}
		}
	}
	return src
}

// probeLin64 is probeLin128 for the 64-bit cipher's uint64 state.
func probeLin64(f func(uint64) uint64) [][]uint8 {
	src := make([][]uint8, 64)
	for p := 0; p < 64; p++ {
		out := f(1 << p)
		for q := 0; q < 64; q++ {
			if out>>q&1 == 1 {
				src[q] = append(src[q], uint8(p))
			}
		}
	}
	return src
}

// mustXor3 converts a probed layer into a fixed three-source table,
// panicking at init if the layer is not exactly-3-source per plane (the
// Almost-MDS circulant guarantees it for mix∘tau and tauInv∘mix).
func mustXor3(src [][]uint8, name string) [][3]uint8 {
	tab := make([][3]uint8, len(src))
	for q, s := range src {
		if len(s) != 3 {
			panic("qarma: sliced table " + name + " is not 3-source")
		}
		copy(tab[q][:], s)
	}
	return tab
}

// mustPerm converts a probed layer into a plane permutation, panicking if
// any output plane has more than one source.
func mustPerm(src [][]uint8, name string) []uint8 {
	perm := make([]uint8, len(src))
	for q, s := range src {
		if len(s) != 1 {
			panic("qarma: sliced table " + name + " is not a permutation")
		}
		perm[q] = s[0]
	}
	return perm
}

// mustAdv converts a probed tweak advance into permutation + LFSR fixes.
func mustAdv(src [][]uint8, name string) advTab {
	t := advTab{perm: make([]uint8, len(src))}
	for q, s := range src {
		switch {
		case len(s) == 1:
			t.perm[q] = s[0]
		case len(s) >= 2 && len(s) <= 4:
			fx := xorFix{q: uint8(q), n: uint8(len(s))}
			copy(fx.src[:], s)
			t.fix = append(t.fix, fx)
			t.perm[q] = s[0] // overwritten by the fix pass
		default:
			panic("qarma: sliced table " + name + " has a dead or wide plane")
		}
	}
	return t
}

// Probe-derived plane wirings, shared by every cipher instance.
var (
	// QARMA-128: forward-round diffusion mix∘tau, backward/reflector
	// diffusion tauInv∘mix, the bare tau gather, and the tweak advance.
	msTab128  = mustXor3(probeLin128(func(b Block) Block { return mixColumns(shuffle(b, _tau)) }), "ms128")
	cmTab128  = mustXor3(probeLin128(func(b Block) Block { return shuffle(mixColumns(b), _tauInv) }), "cm128")
	tauTab128 = mustPerm(probeLin128(func(b Block) Block { return shuffle(b, _tau) }), "tau128")
	advTab128 = mustAdv(probeLin128(advanceTweak), "adv128")

	// QARMA-64 counterparts over the 16x4-bit state.
	msTab64  = mustXor3(probeLin64(func(s uint64) uint64 { return mix64(shuffle64(s, _tau)) }), "ms64")
	cmTab64  = mustXor3(probeLin64(func(s uint64) uint64 { return shuffle64(mix64(s), _tauInv) }), "cm64")
	tauTab64 = mustPerm(probeLin64(func(s uint64) uint64 { return shuffle64(s, _tau) }), "tau64")
	advTab64 = mustAdv(probeLin64(advanceTweak64), "adv64")
)

// maskBit expands bit p of a constant into an all-ones/all-zeros plane mask.
func maskBit(bit uint64) uint64 { return -(bit & 1) }

// expandMask128 turns a 128-bit constant into its 128 plane masks.
func expandMask128(b Block, m *[128]uint64) {
	for p := 0; p < 128; p++ {
		m[p] = maskBit(uint64(b[p>>3] >> (p & 7)))
	}
}

// expandMask64 turns a 64-bit constant into its 64 plane masks.
func expandMask64(v uint64, m *[64]uint64) {
	for p := 0; p < 64; p++ {
		m[p] = maskBit(v >> p)
	}
}

// slicedKeys128 is the plane-mask expansion of one QARMA-128 key schedule,
// built once at NewCipher so EncryptBlocks performs zero allocations and no
// per-call mask expansion. Backward rounds derive the kα ⊕ c[i] masks from
// kRCm (k0 ⊕ c[i]) by XORing the alpha mask.
type slicedKeys128 struct {
	w0m, w1m, alm [128]uint64
	kRCm          [MaxRounds][128]uint64
}

func newSlicedKeys128(c *Cipher) *slicedKeys128 {
	k := &slicedKeys128{}
	expandMask128(c.w0, &k.w0m)
	expandMask128(c.w1, &k.w1m)
	expandMask128(_alpha, &k.alm)
	for i := 0; i < c.rounds; i++ {
		expandMask128(xorBlocks(c.k0, _roundConsts[i]), &k.kRCm[i])
	}
	return k
}

// slicedKeys64 is the QARMA-64 counterpart.
type slicedKeys64 struct {
	w0m, w1m, alm [64]uint64
	kRCm          [MaxRounds64][64]uint64
}

func newSlicedKeys64(c *Cipher64) *slicedKeys64 {
	k := &slicedKeys64{}
	expandMask64(c.w0, &k.w0m)
	expandMask64(c.w1, &k.w1m)
	expandMask64(alpha64, &k.alm)
	for i := 0; i < c.rounds; i++ {
		expandMask64(c.k0^_roundConsts64[i], &k.kRCm[i])
	}
	return k
}

// apply3_128 evaluates a three-source plane wiring: dst[q] = XOR of the
// tabulated source planes of src. dst and src must not alias.
func apply3_128(dst, src *[128]uint64, tab [][3]uint8) {
	for q := 0; q < 128; q++ {
		t := &tab[q]
		dst[q] = src[t[0]] ^ src[t[1]] ^ src[t[2]]
	}
}

func apply3_64(dst, src *[64]uint64, tab [][3]uint8) {
	for q := 0; q < 64; q++ {
		t := &tab[q]
		dst[q] = src[t[0]] ^ src[t[1]] ^ src[t[2]]
	}
}

// advance128 applies the sliced tweak advance dst = adv(src) (h shuffle
// plus LFSR); dst and src must not alias.
func advance128(dst, src *[128]uint64) {
	for q := 0; q < 128; q++ {
		dst[q] = src[advTab128.perm[q]]
	}
	for _, fx := range advTab128.fix {
		v := src[fx.src[0]]
		for k := uint8(1); k < fx.n; k++ {
			v ^= src[fx.src[k]]
		}
		dst[fx.q] = v
	}
}

func advance64(dst, src *[64]uint64) {
	for q := 0; q < 64; q++ {
		dst[q] = src[advTab64.perm[q]]
	}
	for _, fx := range advTab64.fix {
		v := src[fx.src[0]]
		for k := uint8(1); k < fx.n; k++ {
			v ^= src[fx.src[k]]
		}
		dst[fx.q] = v
	}
}

// subPlanes128 applies sigma0 to all 32 nibble groups in place.
func subPlanes128(s *[128]uint64) {
	for g := 0; g < 128; g += 4 {
		s[g], s[g+1], s[g+2], s[g+3] = sigma0Planes(s[g], s[g+1], s[g+2], s[g+3])
	}
}

// subPlanes64 applies sigma0 to all 16 nibble groups in place.
func subPlanes64(s *[64]uint64) {
	for g := 0; g < 64; g += 4 {
		s[g], s[g+1], s[g+2], s[g+3] = sigma0Planes(s[g], s[g+1], s[g+2], s[g+3])
	}
}
