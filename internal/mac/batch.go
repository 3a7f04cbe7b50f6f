package mac

import "ptguard/internal/qarma"

// This file holds the correction search's batch entry point: the dirty
// chunks of many candidate line images are fed through the bit-sliced
// qarma.EncryptBlocks kernel (64 cipher lanes per pass). It is
// bit-identical to sequential ComputeDelta calls (pinned by
// TestComputeDeltaBatchMatchesScalar and FuzzBatchMAC) and performs zero
// heap allocations (all lane marshalling lives on the stack).

// deltaGroup is the candidate group size of ComputeDeltaBatch; with at most
// Chunks() dirty chunks per candidate the pending-lane buffers stay bounded
// on the stack.
const deltaGroup = 64

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
				tweak := chunkTweak(cc.addr + uint64(i*qarma.BlockSize))
				src[m] = chunkInput(cand, i, tweak)
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
