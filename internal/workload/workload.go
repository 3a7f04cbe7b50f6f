// Package workload models the paper's evaluation workloads (§III): the 20
// SPEC CPU-2017 benchmarks (all int and fp except gcc, blender, parest) and
// the 5 GAP graph kernels on USA-road. Each workload is a synthetic memory
// reference generator whose footprint and locality are calibrated so the
// simulated cache hierarchy reproduces the benchmark's published LLC MPKI
// (Fig. 6 bottom panel); the slowdown experiments depend only on that MPKI
// and on page-walk frequency, which the generator also models.
package workload

import (
	"errors"
	"fmt"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// Profile characterises one benchmark.
type Profile struct {
	// Name is the benchmark name as it appears in Fig. 6.
	Name string
	// Suite is "SPEC" or "GAP".
	Suite string
	// TargetMPKI is the LLC misses per kilo-instruction the generator is
	// calibrated to (from Fig. 6's bottom panel and public SPEC-2017 /
	// GAP characterisations).
	TargetMPKI float64
	// MemRefFrac is the fraction of instructions that reference memory.
	MemRefFrac float64
	// FootprintPages is the resident working set in 4 KB pages.
	FootprintPages int
	// HotFraction is the share of references that go to a small hot
	// region (temporal locality); the rest stream over the footprint.
	HotFraction float64
	// HotPages is the size of the hot region in pages.
	HotPages int
	// WriteFrac is the fraction of memory references that are stores.
	WriteFrac float64
}

// Profiles returns the 25 evaluated workloads. MPKI values follow the
// paper's Fig. 6 bottom panel: GAP kernels, xalancbmk, lbm and fotonik3d
// above 10; mcf, omnetpp, cactuBSSN, bwaves, roms in the middle; the rest
// below 5.
func Profiles() []Profile {
	mk := func(name, suite string, mpki float64, footPages int) Profile {
		const memRefFrac = 0.35
		// The streaming share never reuses lines, so with a footprint
		// far above the 2 MB LLC its references all miss:
		// MPKI = 1000 * MemRefFrac * (1 - HotFraction). Invert that to
		// hit the benchmark's published MPKI.
		hot := 1 - mpki/(1000*memRefFrac)
		return Profile{
			Name:           name,
			Suite:          suite,
			TargetMPKI:     mpki,
			MemRefFrac:     memRefFrac,
			FootprintPages: footPages,
			HotFraction:    hot,
			HotPages:       8, // L1-resident: the temporal-locality share
			WriteFrac:      0.3,
		}
	}
	return []Profile{
		// SPECint 2017 (minus gcc).
		mk("perlbench", "SPEC", 0.8, 3000),
		mk("mcf", "SPEC", 14.5, 24000),
		mk("omnetpp", "SPEC", 8.1, 16000),
		mk("xalancbmk", "SPEC", 29.0, 30000),
		mk("x264", "SPEC", 0.7, 3000),
		mk("deepsjeng", "SPEC", 0.4, 2500),
		mk("leela", "SPEC", 0.3, 2000),
		mk("exchange2", "SPEC", 0.1, 1000),
		mk("xz", "SPEC", 2.6, 8000),
		// SPECfp 2017 (minus blender, parest).
		mk("bwaves", "SPEC", 6.2, 14000),
		mk("cactuBSSN", "SPEC", 5.1, 12000),
		mk("namd", "SPEC", 0.3, 2000),
		mk("povray", "SPEC", 0.1, 1000),
		mk("lbm", "SPEC", 20.1, 26000),
		mk("wrf", "SPEC", 2.5, 8000),
		mk("cam4", "SPEC", 1.5, 6000),
		mk("imagick", "SPEC", 0.2, 1500),
		mk("nab", "SPEC", 0.4, 2500),
		mk("fotonik3d", "SPEC", 12.6, 22000),
		mk("roms", "SPEC", 5.9, 13000),
		// GAP on USA-road: pointer-chasing graph kernels.
		mk("bc", "GAP", 11.8, 20000),
		mk("bfs", "GAP", 10.4, 19000),
		mk("cc", "GAP", 12.2, 21000),
		mk("pr", "GAP", 13.5, 22000),
		mk("sssp", "GAP", 14.8, 23000),
	}
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Ref is one memory reference.
type Ref struct {
	// VAddr is the virtual byte address.
	VAddr uint64
	// Write marks a store.
	Write bool
}

// Generator produces the reference stream for one workload instance.
// Not safe for concurrent use.
type Generator struct {
	prof Profile
	rng  *stats.RNG
	// VBase is the virtual base of the workload's data region.
	vbase uint64
	// memRefT, writeT and hotT are the stats.Threshold forms of MemRefFrac,
	// WriteFrac and HotFraction: each draw compares integers, with the
	// outcome rng.Bernoulli would give.
	memRefT, writeT, hotT uint64
	// lines is the footprint in lines; streamPos walks it for the
	// streaming share, kept in [0, lines).
	lines, streamPos uint64
}

// NewGenerator builds a generator; vbase is the virtual base address of the
// workload's mapped region, seed disambiguates instances.
func NewGenerator(prof Profile, vbase uint64, seed uint64) (*Generator, error) {
	if prof.FootprintPages <= 0 || prof.HotPages <= 0 {
		return nil, errors.New("workload: empty footprint")
	}
	if prof.HotPages > prof.FootprintPages {
		return nil, errors.New("workload: hot region exceeds footprint")
	}
	if prof.MemRefFrac <= 0 || prof.MemRefFrac > 1 {
		return nil, errors.New("workload: MemRefFrac outside (0, 1]")
	}
	return &Generator{
		prof:    prof,
		rng:     stats.NewRNG(seed ^ 0x9E3779B9),
		vbase:   vbase,
		memRefT: stats.Threshold(prof.MemRefFrac),
		writeT:  stats.Threshold(prof.WriteFrac),
		hotT:    stats.Threshold(prof.HotFraction),
		lines:   uint64(prof.FootprintPages) * (pte.PageSize / pte.LineBytes),
	}, nil
}

// Profile returns the generator's workload profile.
func (g *Generator) Profile() Profile { return g.prof }

// FootprintBytes returns the mapped region size the workload needs.
func (g *Generator) FootprintBytes() uint64 {
	return uint64(g.prof.FootprintPages) * pte.PageSize
}

// IsMemRef decides whether the next instruction references memory.
func (g *Generator) IsMemRef() bool { return g.rng.Below(g.memRefT) }

// Next produces the next memory reference: with probability HotFraction a
// random line in the hot region (high cache-hit share), otherwise the next
// line of a random-stride sweep over the full footprint (capacity misses).
func (g *Generator) Next() Ref {
	write := g.rng.Below(g.writeT)
	if g.rng.Below(g.hotT) {
		page := uint64(g.rng.Intn(g.prof.HotPages))
		off := uint64(g.rng.Intn(pte.PageSize/pte.LineBytes)) * pte.LineBytes
		return Ref{VAddr: g.vbase + page*pte.PageSize + off, Write: write}
	}
	// Streaming share: jump a pseudo-random number of lines forward so
	// both spatial reuse and capacity pressure appear. A step of at most
	// 8 lines never exceeds the footprint's 64 or more, so one subtraction
	// wraps the position.
	g.streamPos += uint64(1 + g.rng.Intn(8))
	if g.streamPos >= g.lines {
		g.streamPos -= g.lines
	}
	return Ref{VAddr: g.vbase + g.streamPos*pte.LineBytes, Write: write}
}
