// Package stats provides small numeric helpers used across the PT-Guard
// simulation: summary statistics, exact big-number binomials for the
// analytic security model, and a deterministic RNG.
package stats

import (
	"errors"
	"math"
	"math/big"
)

// ErrEmpty is returned by summary statistics invoked on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// GeoMean returns the geometric mean of xs. All values must be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: geomean requires positive values")
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// StdDev returns the sample standard deviation (n-1 denominator) of xs.
func StdDev(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1)), nil
}

// StdErr returns the standard error of the mean of xs.
func StdErr(xs []float64) (float64, error) {
	sd, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	return sd / math.Sqrt(float64(len(xs))), nil
}

// Comb returns the binomial coefficient C(n, k) as an exact big integer.
// It returns zero for k < 0 or k > n.
func Comb(n, k int) *big.Int {
	if k < 0 || k > n {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// CombSum returns sum_{h=0}^{k} C(n, h) as an exact big integer.
func CombSum(n, k int) *big.Int {
	total := big.NewInt(0)
	for h := 0; h <= k; h++ {
		total.Add(total, Comb(n, h))
	}
	return total
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p) using big floats,
// so tail probabilities far below float64 range stay exact enough.
func BinomialPMF(n, k int, p float64) *big.Float {
	if k < 0 || k > n || p < 0 || p > 1 {
		return big.NewFloat(0)
	}
	const prec = 256
	c := new(big.Float).SetPrec(prec).SetInt(Comb(n, k))
	pf := big.NewFloat(p).SetPrec(prec)
	qf := new(big.Float).SetPrec(prec).Sub(big.NewFloat(1), big.NewFloat(p))
	c.Mul(c, powFloat(pf, k, prec))
	c.Mul(c, powFloat(qf, n-k, prec))
	return c
}

// BinomialTail returns P(X > k) for X ~ Binomial(n, p). This is the paper's
// Eq. (2): the probability of an uncorrectable MAC (more than k bit-flips in
// an n-bit MAC) at per-bit flip probability p.
func BinomialTail(n, k int, p float64) *big.Float {
	const prec = 256
	total := new(big.Float).SetPrec(prec)
	for i := k + 1; i <= n; i++ {
		total.Add(total, BinomialPMF(n, i, p))
	}
	return total
}

func powFloat(x *big.Float, n int, prec uint) *big.Float {
	r := new(big.Float).SetPrec(prec).SetInt64(1)
	base := new(big.Float).SetPrec(prec).Set(x)
	for i := 0; i < n; i++ {
		r.Mul(r, base)
	}
	return r
}

// Log2Big returns log2 of a positive big float, used to express tiny attack
// probabilities as "effective MAC bits" (n_eff = -log2 p_escape).
func Log2Big(x *big.Float) (float64, error) {
	if x.Sign() <= 0 {
		return 0, errors.New("stats: log2 of non-positive value")
	}
	mant := new(big.Float)
	exp := x.MantExp(mant)
	m, _ := mant.Float64()
	return float64(exp) + math.Log2(m), nil
}
