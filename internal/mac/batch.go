package mac

import "ptguard/internal/qarma"

// This file holds the batch MAC engine: many 64-byte lines are MAC'd per
// call by feeding all their chunk encryptions through the bit-sliced
// qarma.EncryptBlocks kernel (64 cipher lanes per pass). Every entry point
// is bit-identical to its scalar counterpart (pinned by the
// testing/quick property in batch_test.go and FuzzBatchMAC) and performs
// zero heap allocations (all lane marshalling lives on the stack).

const (
	// groupLines128 and groupLines64 are how many lines fill one 64-lane
	// sliced pass: 16 lines of 4 sixteen-byte chunks under QARMA-128,
	// 8 lines of 8 eight-byte chunks under QARMA-64.
	groupLines128 = 64 / chunks128
	groupLines64  = 64 / chunks64

	// deltaGroup is the candidate group size of ComputeDeltaBatch; with at
	// most Chunks() dirty chunks per candidate the pending-lane buffers
	// stay bounded on the stack.
	deltaGroup = 64
)

// ComputeBatch computes dst[i] = Compute(lines[i], addrs[i]) for every i
// through the sliced kernel. The three slices must have equal length.
func (a *Authenticator) ComputeBatch(dst []Tag, lines [][LineBytes]byte, addrs []uint64) {
	if len(dst) != len(lines) || len(addrs) != len(lines) {
		panic("mac: ComputeBatch slice lengths differ")
	}
	if a.cipher64 != nil {
		a.computeBatch64(dst, lines, addrs)
		return
	}
	var src, tw [64]qarma.Block
	for base := 0; base < len(lines); base += groupLines128 {
		n := len(lines) - base
		if n > groupLines128 {
			n = groupLines128
		}
		nb := n * chunks128
		for j := 0; j < n; j++ {
			marshalChunks128(&src, &tw, j*chunks128, &lines[base+j], addrs[base+j])
		}
		a.cipher.EncryptBlocks(src[:nb], src[:nb], tw[:nb])
		for j := 0; j < n; j++ {
			acc := src[j*chunks128]
			for i := 1; i < chunks128; i++ {
				acc = xorBlock(acc, src[j*chunks128+i])
			}
			dst[base+j] = a.tagFromBlock(acc)
		}
	}
}

func (a *Authenticator) computeBatch64(dst []Tag, lines [][LineBytes]byte, addrs []uint64) {
	var src, tw [64]uint64
	for base := 0; base < len(lines); base += groupLines64 {
		n := len(lines) - base
		if n > groupLines64 {
			n = groupLines64
		}
		nb := n * chunks64
		for j := 0; j < n; j++ {
			marshalChunks64(&src, &tw, j*chunks64, &lines[base+j], addrs[base+j])
		}
		a.cipher64.EncryptBlocks(src[:nb], src[:nb], tw[:nb])
		for j := 0; j < n; j++ {
			acc := src[j*chunks64]
			for i := 1; i < chunks64; i++ {
				acc ^= src[j*chunks64+i]
			}
			dst[base+j] = a.tagFromUint64(acc)
		}
	}
}

// marshalChunks128 loads one line's four tweak-XORed chunks and tweaks into
// lanes k..k+3, matching encryptChunk's input construction.
func marshalChunks128(src, tw *[64]qarma.Block, k int, line *[LineBytes]byte, addr uint64) {
	for i := 0; i < chunks128; i++ {
		chunkAddr := addr + uint64(i*qarma.BlockSize)
		var tweak qarma.Block
		for b := 0; b < 8; b++ {
			tweak[b] = byte(chunkAddr >> (8 * b))
		}
		var chunk qarma.Block
		copy(chunk[:], line[i*qarma.BlockSize:(i+1)*qarma.BlockSize])
		src[k+i] = xorBlock(chunk, tweak)
		tw[k+i] = tweak
	}
}

// marshalChunks64 is the QARMA-64 counterpart of marshalChunks128,
// matching encryptChunk64.
func marshalChunks64(src, tw *[64]uint64, k int, line *[LineBytes]byte, addr uint64) {
	for i := 0; i < chunks64; i++ {
		var chunk uint64
		for b := 0; b < 8; b++ {
			chunk |= uint64(line[i*qarma.Block64Size+b]) << (8 * b)
		}
		chunkAddr := addr + uint64(i*qarma.Block64Size)
		src[k+i] = chunk ^ chunkAddr
		tw[k+i] = chunkAddr
	}
}

// ComputeDeltaBatch scores many candidate line images against one primed
// chunk cache: dst[i] is byte-identical to ComputeDelta(cc, &cands[i])'s
// tag, and enc[i] (when non-nil) receives that candidate's dirty-chunk
// encryption count. Dirty chunks from up to 64 candidates are pooled into
// shared sliced passes, amortising the cipher across the whole candidate
// set; the return value is the total number of chunk encryptions performed.
func (a *Authenticator) ComputeDeltaBatch(dst []Tag, enc []int, cc *ChunkCache, cands [][LineBytes]byte) int {
	if len(dst) != len(cands) || (enc != nil && len(enc) != len(cands)) {
		panic("mac: ComputeDeltaBatch slice lengths differ")
	}
	total := 0
	if cc.use64 {
		var acc, src, tw [deltaGroup * chunks64]uint64
		var owner [deltaGroup * chunks64]uint8
		for base := 0; base < len(cands); base += deltaGroup {
			n := len(cands) - base
			if n > deltaGroup {
				n = deltaGroup
			}
			m := 0
			for j := 0; j < n; j++ {
				cand := &cands[base+j]
				acc[j] = 0
				e := 0
				for i := 0; i < chunks64; i++ {
					if chunkEqual(cand, &cc.base, i*qarma.Block64Size, qarma.Block64Size) {
						acc[j] ^= cc.out64[i]
						continue
					}
					var chunk uint64
					for b := 0; b < 8; b++ {
						chunk |= uint64(cand[i*qarma.Block64Size+b]) << (8 * b)
					}
					chunkAddr := cc.addr + uint64(i*qarma.Block64Size)
					src[m] = chunk ^ chunkAddr
					tw[m] = chunkAddr
					owner[m] = uint8(j)
					m++
					e++
				}
				if enc != nil {
					enc[base+j] = e
				}
			}
			a.cipher64.EncryptBlocks(src[:m], src[:m], tw[:m])
			for k := 0; k < m; k++ {
				acc[owner[k]] ^= src[k]
			}
			for j := 0; j < n; j++ {
				dst[base+j] = a.tagFromUint64(acc[j])
			}
			total += m
		}
		return total
	}
	var acc [deltaGroup]qarma.Block
	var src, tw [deltaGroup * chunks128]qarma.Block
	var owner [deltaGroup * chunks128]uint8
	for base := 0; base < len(cands); base += deltaGroup {
		n := len(cands) - base
		if n > deltaGroup {
			n = deltaGroup
		}
		m := 0
		for j := 0; j < n; j++ {
			cand := &cands[base+j]
			acc[j] = qarma.Block{}
			e := 0
			for i := 0; i < chunks128; i++ {
				if chunkEqual(cand, &cc.base, i*qarma.BlockSize, qarma.BlockSize) {
					acc[j] = xorBlock(acc[j], cc.out[i])
					continue
				}
				chunkAddr := cc.addr + uint64(i*qarma.BlockSize)
				var tweak qarma.Block
				for b := 0; b < 8; b++ {
					tweak[b] = byte(chunkAddr >> (8 * b))
				}
				var chunk qarma.Block
				copy(chunk[:], cand[i*qarma.BlockSize:(i+1)*qarma.BlockSize])
				src[m] = xorBlock(chunk, tweak)
				tw[m] = tweak
				owner[m] = uint8(j)
				m++
				e++
			}
			if enc != nil {
				enc[base+j] = e
			}
		}
		a.cipher.EncryptBlocks(src[:m], src[:m], tw[:m])
		for k := 0; k < m; k++ {
			acc[owner[k]] = xorBlock(acc[owner[k]], src[k])
		}
		for j := 0; j < n; j++ {
			dst[base+j] = a.tagFromBlock(acc[j])
		}
		total += m
	}
	return total
}
