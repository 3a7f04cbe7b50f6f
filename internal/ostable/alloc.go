// Package ostable is the OS page-table substrate: a buddy physical-frame
// allocator, an x86_64 4-level page-table builder, a synthetic process
// population whose PTE value locality matches the paper's measurements
// (§VI-B, Fig. 8), and the profiler that classifies PTEs into
// zero / contiguous / non-contiguous PFN categories.
package ostable

import (
	"errors"
	"fmt"
	"math/bits"
)

// MaxOrder is the largest buddy block: 2^10 frames = 4 MB.
const MaxOrder = 10

// ErrOutOfMemory is returned when no free block can satisfy a request.
var ErrOutOfMemory = errors.New("ostable: out of physical memory")

// FrameAllocator is a classic buddy allocator over physical page frames.
// Physical contiguity of its allocations is what produces the contiguous
// PFNs the paper's correction insight 2 exploits.
// Not safe for concurrent use.
type FrameAllocator struct {
	base   uint64 // first allocatable PFN
	frames uint64 // total allocatable frames
	// origin is base rounded down to a 2^MaxOrder boundary. A block of
	// order o at PFN b has index (b-origin)>>o in free[o]; every buddy of
	// an allocatable block lies at or above origin.
	origin uint64
	free   [MaxOrder + 1]freeSet
	used   uint64
}

// freeSet holds the free blocks of one order as a bitmap over block
// indices. The bitmap grows only as far as the highest block ever freed,
// so its memory follows the address range in use rather than the
// allocator's capacity, and the lowest free block is found from a cursor
// without scanning the set.
type freeSet struct {
	words []uint64
	low   int // every word below low is zero
	n     int // blocks in the set
}

func (s *freeSet) has(i uint64) bool {
	w := i / 64
	return w < uint64(len(s.words)) && s.words[w]&(1<<(i%64)) != 0
}

// anyIn reports whether any of the n indices from lo is in the set.
func (s *freeSet) anyIn(lo, n uint64) bool {
	for end := lo + n; lo < end; {
		w := lo / 64
		if w >= uint64(len(s.words)) {
			return false
		}
		span := 64 - lo%64
		if end-lo < span {
			span = end - lo
		}
		if s.words[w]&(^uint64(0)>>(64-span)<<(lo%64)) != 0 {
			return true
		}
		lo += span
	}
	return false
}

func (s *freeSet) add(i uint64) {
	w := int(i / 64)
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	s.words[w] |= 1 << (i % 64)
	if w < s.low {
		s.low = w
	}
	s.n++
}

func (s *freeSet) remove(i uint64) {
	s.words[i/64] &^= 1 << (i % 64)
	s.n--
}

// takeLowest removes and returns the lowest index in the set, which must
// not be empty.
func (s *freeSet) takeLowest() uint64 {
	for s.words[s.low] == 0 {
		s.low++
	}
	w := s.words[s.low]
	b := bits.TrailingZeros64(w)
	s.words[s.low] = w &^ (1 << uint(b))
	s.n--
	return uint64(s.low*64 + b)
}

// NewFrameAllocator manages `frames` frames starting at PFN base.
func NewFrameAllocator(base, frames uint64) (*FrameAllocator, error) {
	if frames == 0 {
		return nil, errors.New("ostable: zero frames")
	}
	a := &FrameAllocator{base: base, frames: frames, origin: base &^ (1<<MaxOrder - 1)}
	// Seed free lists with maximal aligned blocks.
	pfn := base
	end := base + frames
	for pfn < end {
		o := MaxOrder
		for o > 0 {
			size := uint64(1) << uint(o)
			if pfn%size == 0 && pfn+size <= end {
				break
			}
			o--
		}
		a.insert(pfn, o)
		pfn += uint64(1) << uint(o)
	}
	return a, nil
}

// index returns the free-set index of the order-o block at PFN block.
func (a *FrameAllocator) index(block uint64, o int) uint64 { return (block - a.origin) >> uint(o) }

func (a *FrameAllocator) insert(block uint64, o int) { a.free[o].add(a.index(block, o)) }

// AllocOrder allocates a 2^order-frame block, returning its base PFN.
func (a *FrameAllocator) AllocOrder(order int) (uint64, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("ostable: order %d outside [0, %d]", order, MaxOrder)
	}
	o := order
	for o <= MaxOrder && a.free[o].n == 0 {
		o++
	}
	if o > MaxOrder {
		return 0, ErrOutOfMemory
	}
	// Take the lowest-addressed free block, as a real buddy allocator's
	// free-list head would. Deterministic selection matters: physical
	// frame assignment feeds simulated cache indices and line contents,
	// and campaign runs must be reproducible from their seed alone.
	block := a.origin + a.free[o].takeLowest()<<uint(o)
	// Split down to the requested order, returning buddies to the lists.
	for o > order {
		o--
		a.insert(block+uint64(1)<<uint(o), o)
	}
	a.used += uint64(1) << uint(order)
	return block, nil
}

// AllocContiguous allocates n physically contiguous frames (rounded up to a
// power-of-two block internally; the excess is freed back).
func (a *FrameAllocator) AllocContiguous(n int) (uint64, error) {
	if n <= 0 {
		return 0, errors.New("ostable: non-positive allocation")
	}
	order := bits.Len(uint(n - 1))
	if order > MaxOrder {
		return 0, fmt.Errorf("ostable: %d frames exceeds max block", n)
	}
	block, err := a.AllocOrder(order)
	if err != nil {
		return 0, err
	}
	// Free the tail beyond n.
	for f := block + uint64(n); f < block+uint64(1)<<uint(order); f++ {
		a.used--
		a.coalesce(f, 0)
	}
	return block, nil
}

// AllocFrame allocates a single frame.
func (a *FrameAllocator) AllocFrame() (uint64, error) { return a.AllocOrder(0) }

// FreeOrder releases a block previously returned by AllocOrder. Freeing a
// block any frame of which is already free is an error and changes
// nothing: a double free would otherwise hand the same frames out twice.
func (a *FrameAllocator) FreeOrder(block uint64, order int) error {
	if order < 0 || order > MaxOrder {
		return fmt.Errorf("ostable: order %d outside [0, %d]", order, MaxOrder)
	}
	size := uint64(1) << uint(order)
	if block < a.base || block+size > a.base+a.frames || block%size != 0 {
		return fmt.Errorf("ostable: invalid block %#x order %d", block, order)
	}
	// At each order, look for a free block inside this one (orders below
	// it) or containing it (its own order and above).
	for o := 0; o <= MaxOrder; o++ {
		n := uint64(1)
		if o < order {
			n <<= uint(order - o)
		}
		if a.free[o].anyIn(a.index(block, o), n) {
			return fmt.Errorf("ostable: block %#x order %d is already free", block, order)
		}
	}
	a.used -= size
	a.coalesce(block, order)
	return nil
}

// coalesce inserts a free block and merges buddies upward.
func (a *FrameAllocator) coalesce(block uint64, order int) {
	for order < MaxOrder {
		buddy := block ^ uint64(1)<<uint(order)
		i := a.index(buddy, order)
		if !a.free[order].has(i) {
			break
		}
		a.free[order].remove(i)
		block &^= uint64(1) << uint(order)
		order++
	}
	a.insert(block, order)
}
