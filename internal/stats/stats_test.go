package stats

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{name: "single", xs: []float64{4}, want: 4},
		{name: "pair", xs: []float64{2, 4}, want: 3},
		{name: "negatives", xs: []float64{-1, 1}, want: 0},
		{name: "many", xs: []float64{1, 2, 3, 4, 5}, want: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Mean(tt.xs)
			if err != nil {
				t.Fatalf("Mean(%v) error: %v", tt.xs, err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) expected error")
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %v, want 2", got)
	}
}

func TestGeoMeanRejectsNonPositive(t *testing.T) {
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("GeoMean with zero expected error")
	}
	if _, err := GeoMean([]float64{-2, 4}); err == nil {
		t.Error("GeoMean with negative expected error")
	}
}

func TestStdDevAndStdErr(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	sd, err := StdDev(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Sample std dev of the classic example is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(sd-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", sd, want)
	}
	se, err := StdErr(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(se-want/math.Sqrt(8)) > 1e-12 {
		t.Errorf("StdErr = %v, want %v", se, want/math.Sqrt(8))
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if m, _ := Min(xs); m != -1 {
		t.Errorf("Min = %v, want -1", m)
	}
	if m, _ := Max(xs); m != 7 {
		t.Errorf("Max = %v, want 7", m)
	}
}

func TestComb(t *testing.T) {
	tests := []struct {
		n, k int
		want int64
	}{
		{5, 2, 10},
		{96, 0, 1},
		{96, 1, 96},
		{10, 10, 1},
		{10, 11, 0},
		{10, -1, 0},
	}
	for _, tt := range tests {
		if got := Comb(tt.n, tt.k); got.Cmp(big.NewInt(tt.want)) != 0 {
			t.Errorf("Comb(%d,%d) = %v, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestCombSumMatchesPaperEq1Numerator(t *testing.T) {
	// Paper §VI-E: n=96, k=4 → sum_{h=0}^{4} C(96,h).
	want := big.NewInt(0)
	for _, v := range []int64{1, 96, 4560, 142880, 3321960} {
		want.Add(want, big.NewInt(v))
	}
	if got := CombSum(96, 4); got.Cmp(want) != 0 {
		t.Errorf("CombSum(96,4) = %v, want %v", got, want)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	total := new(big.Float).SetPrec(256)
	for k := 0; k <= 20; k++ {
		total.Add(total, BinomialPMF(20, k, 0.3))
	}
	f, _ := total.Float64()
	if math.Abs(f-1) > 1e-12 {
		t.Errorf("PMF sum = %v, want 1", f)
	}
}

func TestBinomialTailEq2(t *testing.T) {
	// Paper Eq. 2: for n=96 and p_flip=1%, k=4 suffices for <1%
	// uncorrectable MACs, but k=3 does not keep it below 0.31%.
	tail4, _ := BinomialTail(96, 4, 0.01).Float64()
	if tail4 >= 0.01 {
		t.Errorf("P(>4 flips) = %v, want < 1%%", tail4)
	}
	tail0, _ := BinomialTail(96, 0, 0.01).Float64()
	if tail0 <= tail4 {
		t.Errorf("tail must decrease with k: k=0 %v vs k=4 %v", tail0, tail4)
	}
}

func TestLog2Big(t *testing.T) {
	x := new(big.Float).SetInt(new(big.Int).Lsh(big.NewInt(1), 100))
	got, err := Log2Big(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-100) > 1e-9 {
		t.Errorf("Log2Big(2^100) = %v, want 100", got)
	}
	if _, err := Log2Big(big.NewFloat(0)); err == nil {
		t.Error("Log2Big(0) expected error")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/1000 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.25) > 0.01 {
		t.Errorf("Bernoulli(0.25) rate = %v", rate)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(64)
		seen := make([]bool, 64)
		for _, v := range p {
			if v < 0 || v >= 64 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
	if r.Intn(0) != 0 {
		t.Error("Intn(0) should return 0")
	}
}

// thresholdProbes are the probabilities the Threshold tests pin: the
// clamps, the smallest subnormal, the grid 2^-53 and its neighbours, grid
// points k/2^53 one ulp either side, the workload profiles' fractions, and
// values just below 1.
func thresholdProbes() []float64 {
	ps := []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-53, 0.35, 0.3, 0.25, 1 - 0x1p-53,
		1, 1.5, -0.1, math.Inf(1), math.Inf(-1), math.NaN(),
		1 - 0.8/350, 1 - 29.0/350,
	}
	for _, k := range []float64{1, 2, 3, 12345, 1 << 40, 1<<52 + 1, 1<<53 - 1} {
		p := k * 0x1p-53
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	return ps
}

// TestThresholdExact checks the Threshold argument directly at its edge:
// for each probe p, the draws x just below, at and above Threshold(p) must
// satisfy x < Threshold(p) exactly when Float64's value x/2^53 < p.
func TestThresholdExact(t *testing.T) {
	for _, p := range thresholdProbes() {
		th := Threshold(p)
		if th > 1<<53 {
			t.Fatalf("Threshold(%v) = %d above 2^53", p, th)
		}
		for _, x := range []uint64{0, th - 2, th - 1, th, th + 1, 1<<53 - 1} {
			if x >= 1<<53 {
				continue
			}
			if got, want := x < th, float64(x)/(1<<53) < p; got != want {
				t.Errorf("p=%v x=%d: x < Threshold = %v, x/2^53 < p = %v", p, x, got, want)
			}
		}
	}
}

// TestBelowMatchesBernoulli: on identical streams, Below(Threshold(p))
// returns what Bernoulli(p) returns, draw for draw, and leaves the streams
// in step.
func TestBelowMatchesBernoulli(t *testing.T) {
	for _, p := range thresholdProbes() {
		a, b := NewRNG(5), NewRNG(5)
		th := Threshold(p)
		for i := 0; i < 20_000; i++ {
			if got, want := a.Below(th), b.Bernoulli(p); got != want {
				t.Fatalf("p=%v draw %d: Below = %v, Bernoulli = %v", p, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%v: streams out of step", p)
		}
	}
}

// TestIntnPowerOfTwoMatchesModulo: the masked power-of-two path returns
// Uint64() % 2^k, and the modulo path is unchanged for other n.
func TestIntnPowerOfTwoMatchesModulo(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 1 << 20, 1 << 62, 3, 17, 1000} {
		a, b := NewRNG(9), NewRNG(9)
		for i := 0; i < 10_000; i++ {
			if got, want := a.Intn(n), int(b.Uint64()%uint64(n)); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, want %d", n, i, got, want)
			}
		}
	}
}
