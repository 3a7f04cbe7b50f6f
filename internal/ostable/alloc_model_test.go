package ostable

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// FreeFrames returns the number of unallocated frames.
func (a *FrameAllocator) FreeFrames() uint64 { return a.frames - a.used }

// UsedFrames returns the number of allocated frames.
func (a *FrameAllocator) UsedFrames() uint64 { return a.used }

// refAllocator is the reference model for FrameAllocator: the original
// buddy allocator, whose free lists are Go maps scanned for their lowest
// block. It carries the same double-free check, made frame by frame, so
// the two must agree on every block handed out, every error and every
// free-frame count.
type refAllocator struct {
	base, frames, used uint64
	free               [MaxOrder + 1]map[uint64]bool
}

func newRefAllocator(base, frames uint64) *refAllocator {
	a := &refAllocator{base: base, frames: frames}
	for o := range a.free {
		a.free[o] = make(map[uint64]bool)
	}
	for pfn, end := base, base+frames; pfn < end; {
		o := MaxOrder
		for o > 0 && (pfn%(1<<uint(o)) != 0 || pfn+1<<uint(o) > end) {
			o--
		}
		a.free[o][pfn] = true
		pfn += 1 << uint(o)
	}
	return a
}

func (a *refAllocator) FreeFrames() uint64 { return a.frames - a.used }

func (a *refAllocator) AllocOrder(order int) (uint64, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("order %d", order)
	}
	o := order
	for o <= MaxOrder && len(a.free[o]) == 0 {
		o++
	}
	if o > MaxOrder {
		return 0, ErrOutOfMemory
	}
	var block uint64
	first := true
	for b := range a.free[o] {
		if first || b < block {
			block, first = b, false
		}
	}
	delete(a.free[o], block)
	for o > order {
		o--
		a.free[o][block+1<<uint(o)] = true
	}
	a.used += 1 << uint(order)
	return block, nil
}

func (a *refAllocator) AllocContiguous(n int) (uint64, error) {
	if n <= 0 {
		return 0, errors.New("non-positive")
	}
	order := 0
	for 1<<uint(order) < n {
		order++
	}
	if order > MaxOrder {
		return 0, errors.New("too large")
	}
	block, err := a.AllocOrder(order)
	if err != nil {
		return 0, err
	}
	for f := block + uint64(n); f < block+1<<uint(order); f++ {
		a.used--
		a.coalesce(f, 0)
	}
	return block, nil
}

func (a *refAllocator) FreeOrder(block uint64, order int) error {
	if order < 0 || order > MaxOrder {
		return fmt.Errorf("order %d", order)
	}
	size := uint64(1) << uint(order)
	if block < a.base || block+size > a.base+a.frames || block%size != 0 {
		return errors.New("invalid block")
	}
	for f := block; f < block+size; f++ {
		for o := 0; o <= MaxOrder; o++ {
			if a.free[o][f&^(1<<uint(o)-1)] {
				return errors.New("double free")
			}
		}
	}
	a.used -= size
	a.coalesce(block, order)
	return nil
}

func (a *refAllocator) coalesce(block uint64, order int) {
	for order < MaxOrder {
		buddy := block ^ 1<<uint(order)
		if !a.free[order][buddy] {
			break
		}
		delete(a.free[order], buddy)
		if buddy < block {
			block = buddy
		}
		order++
	}
	a.free[order][block] = true
}

// TestFreeOrderRejectsDoubleFree pins the double-free check: a second free
// of the same frame, a free of a frame inside a free block, or a free of a
// block holding a free frame is an error and leaves the allocator
// unchanged.
func TestFreeOrderRejectsDoubleFree(t *testing.T) {
	t.Run("same frame twice", func(t *testing.T) {
		const frames = 4096
		a, err := NewFrameAllocator(0x1000, frames)
		if err != nil {
			t.Fatal(err)
		}
		f, err := a.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.FreeOrder(f, 0); err != nil {
			t.Fatal(err)
		}
		if err := a.FreeOrder(f, 0); err == nil {
			t.Fatal("second free of the same frame accepted")
		}
		if got := a.FreeFrames(); got != frames {
			t.Fatalf("FreeFrames = %d after a rejected double free, want %d", got, frames)
		}
		seen := make(map[uint64]bool, frames)
		for i := 0; i < frames; i++ {
			pfn, err := a.AllocFrame()
			if err != nil {
				t.Fatalf("allocation %d: %v", i, err)
			}
			if seen[pfn] {
				t.Fatalf("PFN %#x handed out twice", pfn)
			}
			seen[pfn] = true
		}
		if _, err := a.AllocFrame(); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("allocation past capacity = %v, want ErrOutOfMemory", err)
		}
	})
	t.Run("frame inside a free block", func(t *testing.T) {
		a, err := NewFrameAllocator(0, 1<<MaxOrder)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := a.AllocOrder(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.AllocOrder(1); err != nil { // keeps lo from coalescing
			t.Fatal(err)
		}
		if err := a.FreeOrder(lo, 1); err != nil {
			t.Fatal(err)
		}
		before := a.FreeFrames()
		if err := a.FreeOrder(lo+1, 0); err == nil {
			t.Fatal("free of a frame inside a free order-1 block accepted")
		}
		if got := a.FreeFrames(); got != before {
			t.Fatalf("FreeFrames = %d after a rejected free, want %d", got, before)
		}
		if got, err := a.AllocOrder(1); err != nil || got != lo {
			t.Fatalf("AllocOrder(1) = %#x, %v; want the free block %#x", got, err, lo)
		}
	})
	t.Run("block holding a free frame", func(t *testing.T) {
		a, err := NewFrameAllocator(0, 1<<MaxOrder)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := a.AllocOrder(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.FreeOrder(lo+1, 0); err != nil {
			t.Fatal(err)
		}
		before := a.FreeFrames()
		if err := a.FreeOrder(lo, 1); err == nil {
			t.Fatal("free of an order-1 block with a free half accepted")
		}
		if got := a.FreeFrames(); got != before {
			t.Fatalf("FreeFrames = %d after a rejected free, want %d", got, before)
		}
	})
}

// TestAllocatorMatchesReference drives FrameAllocator and the map-and-scan
// reference model through the same random operation sequences, over an
// aligned and an unaligned base. Every operation must return the same PFN
// or error and leave the same free-frame count.
func TestAllocatorMatchesReference(t *testing.T) {
	type held struct {
		block uint64
		order int
	}
	for _, tc := range []struct{ base, frames uint64 }{
		{0x1000, 3 << MaxOrder},
		{16, 3<<MaxOrder + 37},
	} {
		t.Run(fmt.Sprintf("base=%#x", tc.base), func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				a, err := NewFrameAllocator(tc.base, tc.frames)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefAllocator(tc.base, tc.frames)
				var live, freed []held
				for op := 0; op < 4000; op++ {
					var got, want uint64
					var gerr, werr error
					var desc string
					switch k := rng.Intn(10); {
					case k < 3:
						o := rng.Intn(MaxOrder+3) - 1
						if rng.Intn(4) != 0 {
							o = rng.Intn(4)
						}
						desc = fmt.Sprintf("AllocOrder(%d)", o)
						got, gerr = a.AllocOrder(o)
						want, werr = ref.AllocOrder(o)
						if gerr == nil && o >= 0 && o <= MaxOrder {
							live = append(live, held{got, o})
						}
					case k < 5:
						n := rng.Intn(20)
						desc = fmt.Sprintf("AllocContiguous(%d)", n)
						got, gerr = a.AllocContiguous(n)
						want, werr = ref.AllocContiguous(n)
						for i := 0; gerr == nil && i < n; i++ {
							live = append(live, held{got + uint64(i), 0})
						}
					case k < 6:
						desc = "AllocFrame()"
						got, gerr = a.AllocFrame()
						want, werr = ref.AllocOrder(0)
						if gerr == nil {
							live = append(live, held{got, 0})
						}
					default:
						var h held
						switch r := rng.Intn(10); {
						case r < 7 && len(live) > 0:
							i := rng.Intn(len(live))
							h = live[i]
							live[i] = live[len(live)-1]
							live = live[:len(live)-1]
							freed = append(freed, h)
						case r < 9 && len(freed) > 0:
							h = freed[rng.Intn(len(freed))] // usually a double free
						default:
							h = held{tc.base + uint64(rng.Intn(int(tc.frames)+8)), rng.Intn(3)}
						}
						desc = fmt.Sprintf("FreeOrder(%#x, %d)", h.block, h.order)
						gerr = a.FreeOrder(h.block, h.order)
						werr = ref.FreeOrder(h.block, h.order)
					}
					if got != want || (gerr == nil) != (werr == nil) || errors.Is(gerr, ErrOutOfMemory) != errors.Is(werr, ErrOutOfMemory) {
						t.Fatalf("seed %d op %d %s = %#x, %v; reference %#x, %v", seed, op, desc, got, gerr, want, werr)
					}
					if a.FreeFrames() != ref.FreeFrames() {
						t.Fatalf("seed %d op %d %s: FreeFrames %d, reference %d", seed, op, desc, a.FreeFrames(), ref.FreeFrames())
					}
				}
			}
		})
	}
}
