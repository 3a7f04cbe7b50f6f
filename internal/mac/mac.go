// Package mac implements PT-Guard's message authentication code (§IV-F):
// the 64-byte cacheline is split into four 16-byte chunks, each chunk is
// XORed with its 16-byte address block and enciphered with QARMA-128, the
// four cipher outputs are XOR-folded into a 128-bit value, and the upper
// bits are dropped to produce the tag: 96 bits in the paper, 64 at the
// §VII-A design point.
//
// The package also provides the fault-tolerant "soft match" of §VI-C and
// the analytic security model of §VI-E (Eqs. 1 and 2).
package mac

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"ptguard/internal/qarma"
)

const (
	// DefaultTagBits is the paper's MAC width: 96 bits pooled from the
	// unused PFN bits of the eight PTEs in a line.
	DefaultTagBits = 96
	// MaxTagBits is the cipher block width ceiling for the tag.
	MaxTagBits = 128
	// LineBytes is the cacheline size the MAC covers.
	LineBytes = 64
	// KeySize is the secret key size: 32 bytes of SRAM (§IV-F).
	KeySize = qarma.KeySize
	// Chunks is the number of 16-byte chunk encryptions one full MAC
	// computation performs: the unit of the simulator's cipher-work
	// accounting.
	Chunks = LineBytes / qarma.BlockSize
)

// Tag is a MAC tag of up to 128 bits, stored little-endian in 16 bytes with
// unused high bits zero.
type Tag struct {
	bits int
	data [16]byte
}

// Bits returns the tag width in bits.
func (t Tag) Bits() int { return t.bits }

// SizeBytes returns ceil(bits/8), the number of significant tag bytes.
func (t Tag) SizeBytes() int { return (t.bits + 7) / 8 }

// Raw returns the tag's full 16-byte little-endian backing store (unused
// high bytes zero). Slice it to SizeBytes on the caller's stack for the
// significant bytes without an allocation.
func (t Tag) Raw() [16]byte { return t.data }

// Equal reports whether two tags match exactly.
func (t Tag) Equal(o Tag) bool { return t.bits == o.bits && t.data == o.data }

// HammingDistance returns the number of differing bits between two tags of
// equal width.
func (t Tag) HammingDistance(o Tag) (int, error) {
	if t.bits != o.bits {
		return 0, fmt.Errorf("mac: width mismatch %d vs %d", t.bits, o.bits)
	}
	lo := binary.LittleEndian.Uint64(t.data[:8]) ^ binary.LittleEndian.Uint64(o.data[:8])
	hi := binary.LittleEndian.Uint64(t.data[8:]) ^ binary.LittleEndian.Uint64(o.data[8:])
	return bits.OnesCount64(lo) + bits.OnesCount64(hi), nil
}

// SoftMatch reports whether the tags are within k bit-flips of each other:
// the fault-tolerant MAC verification of §VI-C. k=0 is an exact match.
func (t Tag) SoftMatch(o Tag, k int) (bool, error) {
	d, err := t.HammingDistance(o)
	if err != nil {
		return false, err
	}
	return d <= k, nil
}

// TagFromBytes builds a width-bits tag from raw little-endian bytes,
// masking off any bits beyond the width.
func TagFromBytes(raw []byte, width int) (Tag, error) {
	if width <= 0 || width > MaxTagBits {
		return Tag{}, fmt.Errorf("mac: tag width %d outside (0, 128]", width)
	}
	t := Tag{bits: width}
	copy(t.data[:], raw)
	maskTail(&t.data, width)
	return t, nil
}

// maskTail clears every bit at or beyond width in a little-endian tag
// image, one 64-bit word at a time.
func maskTail(data *[16]byte, width int) {
	lo := binary.LittleEndian.Uint64(data[:8])
	hi := binary.LittleEndian.Uint64(data[8:])
	switch {
	case width < 64:
		lo &= 1<<uint(width) - 1
		hi = 0
	case width < MaxTagBits:
		hi &= 1<<uint(width-64) - 1
	}
	binary.LittleEndian.PutUint64(data[:8], lo)
	binary.LittleEndian.PutUint64(data[8:], hi)
}

// Authenticator computes line MACs with a fixed secret key.
// It is safe for concurrent use.
type Authenticator struct {
	cipher  *qarma.Cipher
	tagBits int
	// chunkStep[i-1] turns the tweak expansion of chunk i-1 of a line into
	// that of chunk i when their addresses differ only in the chunk index
	// bits (see encryptLine).
	chunkStep [Chunks - 1]qarma.Tweakey
}

// New builds an Authenticator from a 32-byte secret key that truncates
// its MACs to tagBits bits. The paper uses DefaultTagBits; §VII-A
// discusses a 64-bit design point that trades correction strength for
// latency.
func New(key []byte, tagBits int) (*Authenticator, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("mac: key must be %d bytes, got %d", KeySize, len(key))
	}
	if tagBits <= 0 || tagBits > MaxTagBits {
		return nil, errors.New("mac: tag width outside (0, 128]")
	}
	c, err := qarma.NewCipher(key, qarma.DefaultRounds)
	if err != nil {
		return nil, err
	}
	a := &Authenticator{cipher: c, tagBits: tagBits}
	for i := 1; i < Chunks; i++ {
		prev, next := uint64((i-1)*qarma.BlockSize), uint64(i*qarma.BlockSize)
		c.TweakDelta(&a.chunkStep[i-1], chunkTweak(prev^next))
	}
	return a, nil
}

// chunkTweak is the QARMA-128 tweak of the chunk at physical address
// chunkAddr: the address little-endian in the low eight bytes.
func chunkTweak(chunkAddr uint64) qarma.Block {
	var tweak qarma.Block
	binary.LittleEndian.PutUint64(tweak[:8], chunkAddr)
	return tweak
}

// chunkInput is the cipher input of 16-byte chunk i: the chunk XORed with
// its tweak.
func chunkInput(line *[LineBytes]byte, i int, tweak qarma.Block) qarma.Block {
	var chunk qarma.Block
	copy(chunk[:], line[i*qarma.BlockSize:(i+1)*qarma.BlockSize])
	return xorBlock(chunk, tweak)
}

// encryptLine enciphers all four chunks of a line image at addr into out
// under QARMA-128: the line-level entry point of Compute. Chunk i is
// XORed with and tweaked by its own address addr+16i, which both binds the
// MAC to its location (§IV-G) and makes the chunk inputs distinct. The
// tweak expansion is linear in the tweak, so when adding 16i to addr
// carries nothing out of the chunk index bits (always, for a line-aligned
// address) chunk i's tweak is chunk i-1's XORed with a constant and its
// expansion follows from one XOR with chunkStep: the address is expanded
// once per line. Other addresses expand every chunk's tweak.
func (a *Authenticator) encryptLine(out *[Chunks]qarma.Block, line *[LineBytes]byte, addr uint64) {
	var tk qarma.Tweakey
	noCarry := addr&uint64((Chunks-1)*qarma.BlockSize) == 0
	for i := range out {
		tweak := chunkTweak(addr + uint64(i*qarma.BlockSize))
		if i > 0 && noCarry {
			tk.Xor(&a.chunkStep[i-1])
		} else {
			a.cipher.ExpandTweak(&tk, tweak)
		}
		out[i] = a.cipher.EncryptExpanded(chunkInput(line, i, tweak), &tk)
	}
}

// tagFromBlock masks a folded 128-bit accumulator down to the tag width.
func (a *Authenticator) tagFromBlock(acc qarma.Block) Tag {
	t := Tag{bits: a.tagBits}
	copy(t.data[:], acc[:])
	maskTail(&t.data, a.tagBits)
	return t
}

// tagFromWords masks a folded 128-bit accumulator, held as two
// little-endian words, down to the tag width.
func (a *Authenticator) tagFromWords(lo, hi uint64) Tag {
	t := Tag{bits: a.tagBits}
	binary.LittleEndian.PutUint64(t.data[:8], lo)
	binary.LittleEndian.PutUint64(t.data[8:], hi)
	maskTail(&t.data, a.tagBits)
	return t
}

// Compute returns the MAC over a 64-byte line image at physical address
// addr. Callers must zero the bits not covered by the MAC (the MAC field,
// the identifier field, the accessed bits and any ignored bits) before
// calling, per Table IV; internal/core does this. Compute performs zero
// heap allocations (enforced by TestComputeZeroAlloc).
func (a *Authenticator) Compute(line [LineBytes]byte, addr uint64) Tag {
	var out [Chunks]qarma.Block
	a.encryptLine(&out, &line, addr)
	acc := out[0]
	for i := 1; i < Chunks; i++ {
		acc = xorBlock(acc, out[i])
	}
	return a.tagFromBlock(acc)
}

// ChunkCache holds the per-chunk cipher inputs and outputs of one base
// line image at one address, and the fold of those outputs. The §VI-D
// correction search checks hundreds of candidate lines that each differ
// from the faulty base image in at most a chunk or two; caching the base
// chunk outputs lets each candidate re-encipher only its dirty chunks
// instead of recomputing the full MAC. It also keeps each chunk's tweak
// expansion: a chunk's tweak is fixed by its address, so a dirty chunk goes
// straight to the cipher kernel.
type ChunkCache struct {
	base [LineBytes]byte
	addr uint64
	in   [Chunks]qarma.Block
	out  [Chunks]qarma.Block
	tk   [Chunks]qarma.Tweakey
	fold [2]uint64 // XOR of the outputs, little-endian words
}

// Precompute expands every chunk's tweak, enciphers every chunk of the base
// line image and returns the primed cache. It costs exactly Chunks chunk
// encryptions — the same cipher work as one Compute call over the base
// image.
func (a *Authenticator) Precompute(line [LineBytes]byte, addr uint64) ChunkCache {
	cc := ChunkCache{base: line, addr: addr}
	for i := range cc.out {
		tweak := chunkTweak(addr + uint64(i*qarma.BlockSize))
		a.cipher.ExpandTweak(&cc.tk[i], tweak)
		cc.in[i] = chunkInput(&cc.base, i, tweak)
		cc.out[i] = a.cipher.EncryptExpanded(cc.in[i], &cc.tk[i])
		cc.fold[0] ^= binary.LittleEndian.Uint64(cc.out[i][:8])
		cc.fold[1] ^= binary.LittleEndian.Uint64(cc.out[i][8:])
	}
	return cc
}

// ComputeFlip returns the MAC of the cached base image with one bit
// flipped: line bit `bit`, bit bit%8 of byte bit/8, so bit b of PTE i is
// bit 64i+b. Only the chunk holding that bit changes, so its cached cipher
// input with the bit flipped is enciphered once, and the result replaces
// that chunk's output in the cached fold. It costs exactly one chunk
// encryption, and the tag equals ComputeDelta (and so Compute) over the
// flipped image. The §VI-D flip-and-check step scores each of its
// single-bit candidates this way.
func (a *Authenticator) ComputeFlip(cc *ChunkCache, bit int) Tag {
	i := bit / (8 * qarma.BlockSize)
	in := cc.in[i]
	in[bit/8%qarma.BlockSize] ^= 1 << uint(bit%8)
	out := a.cipher.EncryptExpanded(in, &cc.tk[i])
	old := &cc.out[i]
	lo := cc.fold[0] ^ binary.LittleEndian.Uint64(old[:8]) ^ binary.LittleEndian.Uint64(out[:8])
	hi := cc.fold[1] ^ binary.LittleEndian.Uint64(old[8:]) ^ binary.LittleEndian.Uint64(out[8:])
	return a.tagFromWords(lo, hi)
}

// ComputeDelta returns the MAC of cand at the cache's address,
// re-enciphering only the chunks where cand differs from the cached base
// image and XOR-folding the cached outputs for the clean chunks. The
// result is byte-identical to Compute(*cand, addr) for the address the
// cache was primed at; the second return value is the number of chunk
// encryptions actually performed (0 when cand equals the base, up to
// Chunks when every chunk is dirty), which keeps the simulator's
// cipher-work accounting honest.
func (a *Authenticator) ComputeDelta(cc *ChunkCache, cand *[LineBytes]byte) (Tag, int) {
	encrypted := 0
	var acc qarma.Block
	for i := 0; i < Chunks; i++ {
		if chunkEqual(cand, &cc.base, i*qarma.BlockSize) {
			acc = xorBlock(acc, cc.out[i])
			continue
		}
		tweak := chunkTweak(cc.addr + uint64(i*qarma.BlockSize))
		acc = xorBlock(acc, a.cipher.EncryptExpanded(chunkInput(cand, i, tweak), &cc.tk[i]))
		encrypted++
	}
	return a.tagFromBlock(acc), encrypted
}

// chunkEqual reports whether the 16-byte chunks at offset off match.
func chunkEqual(a, b *[LineBytes]byte, off int) bool {
	for i := off; i < off+qarma.BlockSize; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ZeroLineTag returns the precomputed MAC-zero of §V-B: the tag of an
// all-zero line computed without the address input, shared by every zero
// line in memory. It costs 12 bytes of SRAM in hardware.
func (a *Authenticator) ZeroLineTag() Tag {
	var acc qarma.Block
	for i := 0; i < Chunks; i++ {
		var chunk, tweak qarma.Block
		// Without an address, the chunk index alone differentiates the
		// four cipher calls (identical inputs would XOR-cancel).
		tweak[15] = byte(i)
		q := a.cipher.Encrypt(chunk, tweak)
		acc = xorBlock(acc, q)
	}
	return a.tagFromBlock(acc)
}

func xorBlock(x, y qarma.Block) qarma.Block {
	var out qarma.Block
	for i := range out {
		out[i] = x[i] ^ y[i]
	}
	return out
}
