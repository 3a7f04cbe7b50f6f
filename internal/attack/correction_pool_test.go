package attack

import (
	"fmt"
	"testing"

	"ptguard/internal/core"
	"ptguard/internal/dram"
	"ptguard/internal/memctrl"
	"ptguard/internal/ostable"
	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// flushedPool is the reference for samplePool: the Fig. 9 pool as built by
// synthesising each process, flushing every one of its table lines through
// the memory controller, reading back the stored image of each leaf line
// and shuffling the whole pool.
func flushedPool(t *testing.T, guardCfg core.Config, seed uint64) (addrs []uint64, arch, protected []pte.Line) {
	t.Helper()
	dev, err := dram.NewDevice(dram.Geometry{}, dram.Timing{})
	if err != nil {
		t.Fatal(err)
	}
	guard, err := core.NewGuard(guardCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := memctrl.New(dev, guard, 0)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := ostable.NewFrameAllocator(4096, dev.Geometry().Capacity()/pte.PageSize-4096)
	if err != nil {
		t.Fatal(err)
	}
	synth := ostable.DefaultSynthConfig()
	synth.Seed = seed
	pop, err := ostable.NewPopulation(synth, alloc)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 6; p++ {
		tables, err := pop.SynthesizeProcess()
		if err != nil {
			t.Fatal(err)
		}
		var flushAddrs []uint64
		var flushLines []pte.Line
		tables.Lines(func(addr uint64, line pte.Line) {
			flushAddrs = append(flushAddrs, addr)
			flushLines = append(flushLines, line)
		})
		if _, err := ctrl.WriteLinesBatch(flushAddrs, flushLines); err != nil {
			t.Fatal(err)
		}
		tables.LeafLines(func(addr uint64, line pte.Line) {
			addrs = append(addrs, addr)
			arch = append(arch, line)
			protected = append(protected, dev.ReadLine(addr))
		})
	}
	shuf := stats.NewRNG(seed ^ 0x5F0F)
	for i := len(addrs) - 1; i > 0; i-- {
		j := shuf.Intn(i + 1)
		addrs[i], addrs[j] = addrs[j], addrs[i]
		arch[i], arch[j] = arch[j], arch[i]
		protected[i], protected[j] = protected[j], protected[i]
	}
	return addrs, arch, protected
}

// TestSamplePoolMatchesFullFlush pins the purity argument behind protecting
// only the sampled lines: the images samplePool produces for the first N
// shuffled pool lines equal the images a full flush of all six processes
// stores, at the default and at a 64-bit tag width.
func TestSamplePoolMatchesFullFlush(t *testing.T) {
	const lines = 300
	for _, seed := range []uint64{1, 2} {
		for _, tagBits := range []int{0, 64} {
			t.Run(fmt.Sprintf("seed=%d/tagbits=%d", seed, tagBits), func(t *testing.T) {
				guardCfg, err := CorrectionConfig{Seed: seed, TagBits: tagBits}.guardConfig()
				if err != nil {
					t.Fatal(err)
				}
				pool, protected, err := samplePool(guardCfg, seed, lines)
				if err != nil {
					t.Fatal(err)
				}
				if len(protected) != lines {
					t.Fatalf("%d protected images, want %d", len(protected), lines)
				}
				addrs, arch, want := flushedPool(t, guardCfg, seed)
				if len(pool) != len(addrs) {
					t.Fatalf("pool has %d lines, full flush %d", len(pool), len(addrs))
				}
				for i := range pool {
					if pool[i].Addr != addrs[i] || pool[i].Line != arch[i] {
						t.Fatalf("pool line %d = %#x, full flush has %#x", i, pool[i].Addr, addrs[i])
					}
				}
				for i := range protected {
					if protected[i] != want[i] {
						t.Fatalf("line %d at %#x: on-demand image %x, full-flush image %x", i, addrs[i], protected[i], want[i])
					}
				}
			})
		}
	}
}
