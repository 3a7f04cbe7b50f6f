package attack

import (
	"crypto/sha256"
	"encoding/hex"
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
// only the sampled lines through a bare guard: the images samplePool
// produces for the first N shuffled pool lines equal the images a full
// flush of all six processes through the memory controller stores, at the
// default and at a 64-bit tag width. Its length check also pins that the
// guard protects every synthesized line, so no pool line is dropped.
func TestSamplePoolMatchesFullFlush(t *testing.T) {
	const lines = 300
	for _, seed := range []uint64{1, 2} {
		for _, tagBits := range []int{0, 64} {
			t.Run(fmt.Sprintf("seed=%d/tagbits=%d", seed, tagBits), func(t *testing.T) {
				guardCfg, err := CorrectionConfig{Seed: seed, TagBits: tagBits}.guardConfig()
				if err != nil {
					t.Fatal(err)
				}
				samples, err := samplePool(guardCfg, seed, lines)
				if err != nil {
					t.Fatal(err)
				}
				if len(samples) != lines {
					t.Fatalf("%d protected samples, want %d", len(samples), lines)
				}
				addrs, arch, want := flushedPool(t, guardCfg, seed)
				alloc, err := ostable.NewFrameAllocator(4096, dram.DefaultGeometry().Capacity()/pte.PageSize-4096)
				if err != nil {
					t.Fatal(err)
				}
				pool, err := ostable.SynthesizePool(alloc, seed)
				if err != nil {
					t.Fatal(err)
				}
				if pool.Len() != len(addrs) {
					t.Fatalf("pool has %d lines, full flush %d", pool.Len(), len(addrs))
				}
				for i := range addrs {
					if l := pool.Line(i); l.Addr != addrs[i] || l.Line != arch[i] {
						t.Fatalf("pool line %d = %#x, full flush has %#x", i, l.Addr, addrs[i])
					}
				}
				for i, s := range samples {
					if s.addr != addrs[i] || s.arch != arch[i] {
						t.Fatalf("sample %d = %#x, full flush has %#x", i, s.addr, addrs[i])
					}
					if s.protected != want[i] {
						t.Fatalf("line %d at %#x: on-demand image %x, full-flush image %x", i, addrs[i], s.protected, want[i])
					}
				}
			})
		}
	}
}

// fig9KeysDigest pins the keys of both Fig. 9 guards at seeds 1 and 42: the
// pool's is drawn from Seed^0xF19 and the trace's from Seed^0x916. At the
// trace's 96-bit tag no reported count depends on the key, so
// TestFig9DriversPinned cannot see the trace's salt; this test can.
const fig9KeysDigest = "301904a42dddf49d096ebb294bfbbbaa080c70f05769436509e5a64130c240c0"

func TestFig9GuardKeysPinned(t *testing.T) {
	h := sha256.New()
	for _, seed := range []uint64{1, 42} {
		pool, err := CorrectionConfig{Seed: seed}.guardConfig()
		if err != nil {
			t.Fatal(err)
		}
		trace, err := TraceCorrectionConfig{Seed: seed}.guardConfig()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(pool.Key)
		h.Write(trace.Key)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fig9KeysDigest {
		t.Errorf("Fig. 9 guard keys digest = %s, want %s", got, fig9KeysDigest)
	}
}
