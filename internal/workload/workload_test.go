package workload

import (
	"math"
	"testing"

	"ptguard/internal/pte"
	"ptguard/internal/stats"
)

func TestProfilesMatchPaperRoster(t *testing.T) {
	ps := Profiles()
	if len(ps) != 25 {
		t.Fatalf("profiles = %d, want 25 (20 SPEC + 5 GAP)", len(ps))
	}
	spec, gap := 0, 0
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		switch p.Suite {
		case "SPEC":
			spec++
		case "GAP":
			gap++
		default:
			t.Errorf("%s: unknown suite %q", p.Name, p.Suite)
		}
	}
	if spec != 20 || gap != 5 {
		t.Errorf("suite split = %d SPEC / %d GAP, want 20/5", spec, gap)
	}
	// §III excludes gcc, blender, parest.
	for _, excluded := range []string{"gcc", "blender", "parest"} {
		if seen[excluded] {
			t.Errorf("%s must be excluded per §III", excluded)
		}
	}
	// Fig. 6: xalancbmk is the highest-MPKI workload at 29.
	x, err := ProfileByName("xalancbmk")
	if err != nil {
		t.Fatal(err)
	}
	if x.TargetMPKI != 29.0 {
		t.Errorf("xalancbmk MPKI = %v, want 29", x.TargetMPKI)
	}
	for _, p := range ps {
		if p.TargetMPKI > x.TargetMPKI {
			t.Errorf("%s MPKI %v exceeds xalancbmk", p.Name, p.TargetMPKI)
		}
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("doom"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestProfileInvariants(t *testing.T) {
	for _, p := range Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			if p.HotFraction <= 0 || p.HotFraction >= 1 {
				t.Errorf("HotFraction = %v outside (0,1)", p.HotFraction)
			}
			// Footprint must exceed the 2 MB LLC so the streaming
			// share misses (the calibration's premise).
			if p.FootprintPages*pte.PageSize <= 2<<20 {
				t.Errorf("footprint %d pages does not exceed the LLC", p.FootprintPages)
			}
			// Derived MPKI identity.
			implied := 1000 * p.MemRefFrac * (1 - p.HotFraction)
			if math.Abs(implied-p.TargetMPKI) > 1e-9 {
				t.Errorf("implied MPKI %v != target %v", implied, p.TargetMPKI)
			}
		})
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := Profile{FootprintPages: 0, HotPages: 1, MemRefFrac: 0.5}
	if _, err := NewGenerator(bad, 0, 1); err == nil {
		t.Error("empty footprint accepted")
	}
	bad = Profile{FootprintPages: 10, HotPages: 20, MemRefFrac: 0.5}
	if _, err := NewGenerator(bad, 0, 1); err == nil {
		t.Error("hot > footprint accepted")
	}
	bad = Profile{FootprintPages: 10, HotPages: 5, MemRefFrac: 0}
	if _, err := NewGenerator(bad, 0, 1); err == nil {
		t.Error("zero MemRefFrac accepted")
	}
}

func TestGeneratorStaysInFootprint(t *testing.T) {
	prof, err := ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	const vbase = 0x10000000000
	g, err := NewGenerator(prof, vbase, 7)
	if err != nil {
		t.Fatal(err)
	}
	end := vbase + g.FootprintBytes()
	for i := 0; i < 100000; i++ {
		r := g.Next()
		if r.VAddr < vbase || r.VAddr >= end {
			t.Fatalf("ref %#x outside [%#x, %#x)", r.VAddr, vbase, end)
		}
		if r.VAddr%pte.LineBytes != 0 {
			t.Fatalf("ref %#x not line aligned", r.VAddr)
		}
	}
}

func TestGeneratorRates(t *testing.T) {
	prof, _ := ProfileByName("xalancbmk")
	g, _ := NewGenerator(prof, 0x2000000000, 3)
	const n = 200000
	memRefs, writes := 0, 0
	for i := 0; i < n; i++ {
		if g.IsMemRef() {
			memRefs++
		}
		if g.Next().Write {
			writes++
		}
	}
	memRate := float64(memRefs) / n
	if math.Abs(memRate-prof.MemRefFrac) > 0.01 {
		t.Errorf("mem ref rate = %v, want %v", memRate, prof.MemRefFrac)
	}
	writeRate := float64(writes) / n
	if math.Abs(writeRate-prof.WriteFrac) > 0.01 {
		t.Errorf("write rate = %v, want %v", writeRate, prof.WriteFrac)
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	prof, _ := ProfileByName("lbm")
	a, _ := NewGenerator(prof, 0, 11)
	b, _ := NewGenerator(prof, 0, 11)
	c, _ := NewGenerator(prof, 0, 12)
	diff := false
	for i := 0; i < 1000; i++ {
		ra, rb, rc := a.Next(), b.Next(), c.Next()
		if ra != rb {
			t.Fatal("same seed diverged")
		}
		if ra != rc {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical streams")
	}
}

// refGenerator is the float-compare generator the integer thresholds
// replaced, kept as the reference model: Bernoulli draws, and the stream
// position reduced modulo the footprint on every reference.
type refGenerator struct {
	prof      Profile
	rng       *stats.RNG
	vbase     uint64
	streamPos uint64
}

func (g *refGenerator) isMemRef() bool { return g.rng.Bernoulli(g.prof.MemRefFrac) }

func (g *refGenerator) next() Ref {
	write := g.rng.Bernoulli(g.prof.WriteFrac)
	if g.rng.Bernoulli(g.prof.HotFraction) {
		page := uint64(g.rng.Intn(g.prof.HotPages))
		off := uint64(g.rng.Intn(pte.PageSize/pte.LineBytes)) * pte.LineBytes
		return Ref{VAddr: g.vbase + page*pte.PageSize + off, Write: write}
	}
	g.streamPos += uint64(1 + g.rng.Intn(8))
	lines := uint64(g.prof.FootprintPages) * (pte.PageSize / pte.LineBytes)
	pos := g.streamPos % lines
	return Ref{VAddr: g.vbase + pos*pte.LineBytes, Write: write}
}

// TestGeneratorMatchesReferenceModel: every profile, plus a one-page
// footprint whose 64 lines the stream wraps every few references, yields
// the reference model's instruction and reference stream exactly.
func TestGeneratorMatchesReferenceModel(t *testing.T) {
	tiny := Profile{Name: "tiny", MemRefFrac: 0.5, FootprintPages: 1, HotFraction: 0.1, HotPages: 1, WriteFrac: 0.3}
	for _, prof := range append(Profiles(), tiny) {
		const vbase, seed = 0x10_0000_0000, 21
		g, err := NewGenerator(prof, vbase, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refGenerator{prof: prof, rng: stats.NewRNG(seed ^ 0x9E3779B9), vbase: vbase}
		for i := 0; i < 50_000; i++ {
			if got, want := g.IsMemRef(), ref.isMemRef(); got != want {
				t.Fatalf("%s step %d: IsMemRef = %v, want %v", prof.Name, i, got, want)
			}
			if got, want := g.Next(), ref.next(); got != want {
				t.Fatalf("%s step %d: Next = %+v, want %+v", prof.Name, i, got, want)
			}
		}
	}
}
