package ostable

import (
	"errors"
	"sort"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

// ProcessStats classifies one process's leaf PTEs into the three Fig. 8
// categories.
type ProcessStats struct {
	// Total is the number of leaf PTE slots (including zeros).
	Total int
	// Zero counts all-zero PTEs.
	Zero int
	// Contiguous counts PTEs whose PFN is ±1 of a nearest non-zero
	// neighbour within the same cacheline.
	Contiguous int
	// NonContiguous counts the remaining non-zero PTEs.
	NonContiguous int
	// UniformFlagLines / NonZeroLines measure per-line flag uniformity
	// (Insight 3: >99% of lines have identical flags on non-zero PTEs).
	UniformFlagLines int
	NonZeroLines     int
}

// ZeroPct returns the zero-PTE percentage.
func (s ProcessStats) ZeroPct() float64 { return pct(s.Zero, s.Total) }

// ContiguousPct returns the contiguous-PFN percentage.
func (s ProcessStats) ContiguousPct() float64 { return pct(s.Contiguous, s.Total) }

// NonContiguousPct returns the non-contiguous-PFN percentage.
func (s ProcessStats) NonContiguousPct() float64 { return pct(s.NonContiguous, s.Total) }

// FlagUniformityPct returns the share of non-zero lines with uniform flags.
func (s ProcessStats) FlagUniformityPct() float64 { return pct(s.UniformFlagLines, s.NonZeroLines) }

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// ProfileProcess classifies every leaf PTE of the process (the Fig. 8
// methodology: nearest non-zero neighbour within the same cacheline).
func ProfileProcess(pt *PageTables) ProcessStats {
	var s ProcessStats
	pt.LeafLines(func(_ uint64, line pte.Line) {
		s.Total += pte.PTEsPerLine
		flagsSeen := map[uint64]bool{}
		nonZero := 0
		for i, e := range line {
			if e == 0 {
				s.Zero++
				continue
			}
			nonZero++
			flagsSeen[uint64(e)&0x1FF|uint64(e)>>59<<9] = true
			if isContiguous(line, i) {
				s.Contiguous++
			} else {
				s.NonContiguous++
			}
		}
		if nonZero > 0 {
			s.NonZeroLines++
			if len(flagsSeen) == 1 {
				s.UniformFlagLines++
			}
		}
	})
	return s
}

// isContiguous reports whether entry i's PFN is ±1 of its nearest non-zero
// neighbour on either side within the line.
func isContiguous(line pte.Line, i int) bool {
	pfn := int64(line[i].PFN())
	for j := i - 1; j >= 0; j-- {
		if line[j] != 0 {
			d := pfn - int64(line[j].PFN())
			if d == 1 || d == -1 {
				return true
			}
			break
		}
	}
	for j := i + 1; j < pte.PTEsPerLine; j++ {
		if line[j] != 0 {
			d := pfn - int64(line[j].PFN())
			if d == 1 || d == -1 {
				return true
			}
			break
		}
	}
	return false
}

// PopulationSummary aggregates per-process percentages, matching the
// paper's n=623 presentation (mean and standard error per category).
type PopulationSummary struct {
	Processes   int
	TotalPTEs   int
	ZeroMean    float64
	ZeroStdErr  float64
	ContigMean  float64
	ContigSE    float64
	NonContMean float64
	FlagUniform float64
	// PerProcess is sorted by contiguous percentage, the Fig. 8 x-axis.
	PerProcess []ProcessStats
}

// Summarize aggregates process profiles.
func Summarize(perProc []ProcessStats) (PopulationSummary, error) {
	if len(perProc) == 0 {
		return PopulationSummary{}, errors.New("ostable: empty population")
	}
	zero := make([]float64, len(perProc))
	contig := make([]float64, len(perProc))
	nonc := make([]float64, len(perProc))
	flag := make([]float64, 0, len(perProc))
	total := 0
	for i, s := range perProc {
		zero[i] = s.ZeroPct()
		contig[i] = s.ContiguousPct()
		nonc[i] = s.NonContiguousPct()
		if s.NonZeroLines > 0 {
			flag = append(flag, s.FlagUniformityPct())
		}
		total += s.Total
	}
	sorted := make([]ProcessStats, len(perProc))
	copy(sorted, perProc)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].ContiguousPct() > sorted[j].ContiguousPct()
	})
	zm, _ := stats.Mean(zero)
	cm, _ := stats.Mean(contig)
	nm, _ := stats.Mean(nonc)
	fm, _ := stats.Mean(flag)
	sum := PopulationSummary{
		Processes:   len(perProc),
		TotalPTEs:   total,
		ZeroMean:    zm,
		ContigMean:  cm,
		NonContMean: nm,
		FlagUniform: fm,
		PerProcess:  sorted,
	}
	if len(perProc) >= 2 {
		sum.ZeroStdErr, _ = stats.StdErr(zero)
		sum.ContigSE, _ = stats.StdErr(contig)
	}
	return sum, nil
}

// RunPopulation streams n synthetic processes: build, profile, free. The
// shared allocator keeps inter-process fragmentation realistic while memory
// stays bounded. A process is torn down in a fixed order: its table pages,
// level by level in allocation order (PageTables.Free); then its data
// frames, read from its leaf entries in virtual-address order, which is
// the order populateVMA allocated them; then the frames of a cluster it
// could not finish mapping.
func RunPopulation(p *Population, n int) ([]ProcessStats, error) {
	if n <= 0 {
		return nil, errors.New("ostable: population size must be positive")
	}
	out := make([]ProcessStats, 0, n)
	var frames []uint64
	for i := 0; i < n; i++ {
		pt, err := p.SynthesizeProcess()
		if err != nil {
			return nil, err
		}
		out = append(out, ProfileProcess(pt))
		frames = append(pt.appendLeafFrames(frames[:0]), p.unmapped...)
		p.unmapped = p.unmapped[:0]
		pt.Free()
		for _, pfn := range frames {
			// Errors cannot occur for frames the population allocated.
			_ = p.alloc.FreeOrder(pfn, 0)
		}
	}
	return out, nil
}
