package stats

import "math"

// RNG is a small, deterministic pseudo-random number generator
// (xoshiro256** by Blackman & Vigna) used by every stochastic component of
// the simulation. A dedicated implementation keeps experiment results
// reproducible across Go releases, unlike math/rand's unspecified sources.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from a single 64-bit value via
// SplitMix64, which guarantees a well-mixed non-zero state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). n must be positive. A power of
// two masks instead of dividing: x % 2^k == x & (2^k-1).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	if n&(n-1) == 0 {
		return int(r.Uint64() & uint64(n-1))
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Threshold converts a probability into the integer threshold Below takes,
// so a caller drawing many times at one p compares integers instead of
// converting and comparing floats: Below(Threshold(p)) consumes the same
// draw and returns the same value as Bernoulli(p) for every p. Float64 is
// x/2^53 for the integer x = Uint64()>>11 < 2^53, so x/2^53 < p holds
// exactly when x < p·2^53, and, x being an integer, when x < ceil(p·2^53).
// Scaling by 2^53 is exact, and so is ceil. p ≤ 0 and NaN never succeed
// (threshold 0); p ≥ 1 always does (threshold 2^53).
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below draws x = Uint64()>>11, uniform in [0, 2^53), and reports x < t;
// with t = Threshold(p) it is Bernoulli(p).
func (r *RNG) Below(t uint64) bool {
	return r.Uint64()>>11 < t
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
