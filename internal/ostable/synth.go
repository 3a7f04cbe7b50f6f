package ostable

import (
	"errors"
	"fmt"
	"math/bits"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// SynthConfig tunes the synthetic process population. The defaults are
// calibrated so the population reproduces the paper's measured PTE value
// locality (§VI-B): 64.13% zero PTEs, 23.73% contiguous PFNs, and >99%
// flag uniformity within PTE cachelines.
type SynthConfig struct {
	// Seed drives the deterministic generator.
	Seed uint64
	// MinVMAs/MaxVMAs bound the memory regions per process (text, heap,
	// stacks, libraries, anonymous mmaps).
	MinVMAs, MaxVMAs int
	// MaxVMAPages caps a region's size; sizes are log-uniform in
	// [1, MaxVMAPages], giving the many small and few huge regions of
	// real processes.
	MaxVMAPages int
	// FragProb is the probability that a physical allocation cluster is
	// a single frame rather than a buddy run; it controls the
	// non-contiguous PFN fraction.
	FragProb float64
	// MaxClusterPages caps a contiguous buddy run.
	MaxClusterPages int
}

// DefaultSynthConfig returns the calibrated population parameters.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{
		MinVMAs:         20,
		MaxVMAs:         120,
		MaxVMAPages:     1400,
		FragProb:        0.82,
		MaxClusterPages: 16,
	}
}

func (c SynthConfig) validate() error {
	if c.MinVMAs <= 0 || c.MaxVMAs < c.MinVMAs {
		return fmt.Errorf("ostable: bad VMA bounds [%d, %d]", c.MinVMAs, c.MaxVMAs)
	}
	if c.MaxVMAPages <= 0 {
		return errors.New("ostable: MaxVMAPages must be positive")
	}
	if c.FragProb < 0 || c.FragProb > 1 {
		return errors.New("ostable: FragProb outside [0, 1]")
	}
	if c.MaxClusterPages < 2 {
		return errors.New("ostable: MaxClusterPages must be >= 2")
	}
	return nil
}

// vmaFlagSets are the per-region leaf flag archetypes: writable data,
// read-execute text, read-only data, and stack. Flags are constant within a
// region, which is what produces the paper's >99% per-line flag uniformity.
var vmaFlagSets = []pte.Entry{
	pte.Entry(0).SetBit(pte.BitWritable, true).SetBit(pte.BitUserAccessible, true).SetBit(pte.BitNX, true),
	pte.Entry(0).SetBit(pte.BitUserAccessible, true),
	pte.Entry(0).SetBit(pte.BitUserAccessible, true).SetBit(pte.BitNX, true),
	pte.Entry(0).SetBit(pte.BitWritable, true).SetBit(pte.BitUserAccessible, true).SetBit(pte.BitNX, true).SetBit(pte.BitGlobal, false),
}

// Population synthesises processes one at a time against a shared frame
// allocator, so physical fragmentation evolves across processes as on a
// live system.
type Population struct {
	cfg   SynthConfig
	alloc *FrameAllocator
	rng   *stats.RNG

	// scatter holds single frames handed out for fragmented allocations.
	// A live system's free lists are scrambled by churn, so two back-to-
	// back single-frame allocations rarely return adjacent PFNs; a fresh
	// buddy allocator would. The pool refills from a buddy block whose
	// frames are emitted in a stride permutation to break adjacency.
	scatter []uint64

	// unmapped holds the frames of a cluster that MapRange could not
	// finish mapping (out of memory), in allocation order. No leaf entry
	// names them, so RunPopulation returns them after the process's mapped
	// frames.
	unmapped []uint64
}

// NewPopulation builds a population over the given allocator.
func NewPopulation(cfg SynthConfig, alloc *FrameAllocator) (*Population, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if alloc == nil {
		return nil, errors.New("ostable: nil allocator")
	}
	return &Population{cfg: cfg, alloc: alloc, rng: stats.NewRNG(cfg.Seed)}, nil
}

// logUniform returns a value in [1, max] distributed uniformly in log space.
func (p *Population) logUniform(max int) int {
	if max <= 1 {
		return 1
	}
	lo, hi := 0.0, float64(bits.Len(uint(max)))
	e := lo + p.rng.Float64()*(hi-lo)
	v := 1 << uint(e)
	extra := p.rng.Intn(v) // smooth within the octave
	n := v + extra
	if n > max {
		n = max
	}
	return n
}

// SynthesizeProcess builds one process's page tables. Virtual regions are
// placed at randomised, page-table-page-misaligned bases (ASLR), so leaf PT
// pages are partially filled and zero PTEs dominate, as on real systems.
func (p *Population) SynthesizeProcess() (*PageTables, error) {
	pt, err := NewPageTables(p.alloc)
	if err != nil {
		return nil, err
	}
	nVMAs := p.cfg.MinVMAs + p.rng.Intn(p.cfg.MaxVMAs-p.cfg.MinVMAs+1)
	// Partition the canonical user half by VMA index to avoid overlap:
	// each VMA gets a 1 GB-aligned slot with a random offset inside.
	for v := 0; v < nVMAs; v++ {
		pages := p.logUniform(p.cfg.MaxVMAPages)
		slot := uint64(v+1) << 30
		offset := uint64(p.rng.Intn(1<<17)) * pte.PageSize
		base := slot + offset
		if err := p.populateVMA(pt, base, pages, vmaFlagSets[p.rng.Intn(len(vmaFlagSets))]); err != nil {
			if errors.Is(err, ErrOutOfMemory) {
				break // partially built process is still valid
			}
			return nil, err
		}
	}
	return pt, nil
}

// populateVMA maps `pages` consecutive virtual pages starting at base,
// backing them with physical clusters: with probability FragProb a single
// frame, otherwise a contiguous buddy run of 2..MaxClusterPages frames.
func (p *Population) populateVMA(pt *PageTables, base uint64, pages int, flags pte.Entry) error {
	vaddr := base
	remaining := pages
	for remaining > 0 {
		cluster := 1
		if !p.rng.Bernoulli(p.cfg.FragProb) {
			cluster = 2 + p.rng.Intn(p.cfg.MaxClusterPages-1)
		}
		if cluster > remaining {
			cluster = remaining
		}
		var pfn uint64
		var err error
		if cluster == 1 {
			pfn, err = p.scatterFrame()
		} else {
			pfn, err = p.alloc.AllocContiguous(cluster)
		}
		if err != nil {
			return err
		}
		if err := pt.MapRange(vaddr, pfn, cluster, flags); err != nil {
			for i := 0; i < cluster; i++ {
				if _, ok := pt.Translate(vaddr + uint64(i)*pte.PageSize); !ok {
					p.unmapped = append(p.unmapped, pfn+uint64(i))
				}
			}
			return err
		}
		vaddr += uint64(cluster) * pte.PageSize
		remaining -= cluster
	}
	return nil
}

// scatterFrame returns a single frame from the fragmented pool.
func (p *Population) scatterFrame() (uint64, error) {
	if len(p.scatter) == 0 {
		const order = 6 // 64-frame refill
		block, err := p.alloc.AllocOrder(order)
		if err != nil {
			// Memory too fragmented for a block: fall back to
			// whatever single frame remains.
			return p.alloc.AllocFrame()
		}
		n := 1 << order
		// Stride 17 is coprime with 64: a permutation where
		// successive frames differ by 17 PFNs.
		for i := 0; i < n; i++ {
			p.scatter = append(p.scatter, block+uint64(i*17%n))
		}
	}
	pfn := p.scatter[len(p.scatter)-1]
	p.scatter = p.scatter[:len(p.scatter)-1]
	return pfn, nil
}

// PoolLine is one leaf PTE cacheline of a line pool: its physical address
// and architectural content.
type PoolLine struct {
	Addr uint64
	Line pte.Line
}

// poolProcesses is the number of synthetic processes behind a line pool.
const poolProcesses = 6

// Pool is the line pool the correction and fault campaigns sample (§VI-F):
// every leaf line of a set of processes' page tables, in a shuffled order.
// It stores the order as a permutation of line indices and builds a
// PoolLine only when one is read.
type Pool struct {
	// leaves lists every leaf table page, process by process and each
	// process's in address order; line index k is line k%64 of leaves[k/64].
	leaves []leafPage
	// order maps a pool position to a line index.
	order []int32
}

// leafPage is one leaf table page of a Pool: its base address and content.
type leafPage struct {
	base uint64
	page *tablePage
}

// Len returns the number of lines in the pool.
func (p *Pool) Len() int { return len(p.order) }

// Line returns the pool's i-th line.
func (p *Pool) Line(i int) PoolLine {
	k := int(p.order[i])
	leaf := p.leaves[k/linesPerTable]
	return PoolLine{
		Addr: leaf.base + uint64(k%linesPerTable*pte.LineBytes),
		Line: leaf.page[k%linesPerTable],
	}
}

// SynthesizePool builds the line pool the correction and fault campaigns
// sample (§VI-F): six processes synthesised over alloc from the default
// population seeded with seed. Before the shuffle the pool lists every leaf
// line of every process, process by process, each process's in address
// order; a Fisher–Yates shuffle driven by an RNG seeded with seed^0x5F0F
// then permutes the line indices. The shuffle is independent of everything
// a campaign sweeps, so every sweep point visits the same lines in the same
// order, and a small run samples a representative mix of zero-heavy and
// dense lines. The tables stay allocated: freeing them would recycle
// frames and alias pool addresses across processes.
func SynthesizePool(alloc *FrameAllocator, seed uint64) (*Pool, error) {
	cfg := DefaultSynthConfig()
	cfg.Seed = seed
	pop, err := NewPopulation(cfg, alloc)
	if err != nil {
		return nil, err
	}
	pool := &Pool{}
	for range poolProcesses {
		pt, err := pop.SynthesizeProcess()
		if err != nil {
			return nil, err
		}
		for _, base := range pt.LeafTablePages() {
			pool.leaves = append(pool.leaves, leafPage{base, pt.pages[base]})
		}
	}
	n := len(pool.leaves) * linesPerTable
	if n == 0 {
		return nil, errors.New("ostable: empty line pool")
	}
	pool.order = make([]int32, n)
	for i := range pool.order {
		pool.order[i] = int32(i)
	}
	shuf := stats.NewRNG(seed ^ 0x5F0F)
	for i := n - 1; i > 0; i-- {
		j := shuf.Intn(i + 1)
		pool.order[i], pool.order[j] = pool.order[j], pool.order[i]
	}
	return pool, nil
}
