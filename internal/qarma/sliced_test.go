package qarma

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSigma0Circuit pins the hand-factored boolean circuit against the
// _sigma0 table: all 16 nibble values are packed into distinct lanes and
// evaluated in one pass.
func TestSigma0Circuit(t *testing.T) {
	var x0, x1, x2, x3, w0, w1, w2, w3 uint64
	for v := uint64(0); v < 16; v++ {
		x0 |= (v & 1) << v
		x1 |= (v >> 1 & 1) << v
		x2 |= (v >> 2 & 1) << v
		x3 |= (v >> 3 & 1) << v
		s := uint64(_sigma0[v])
		w0 |= (s & 1) << v
		w1 |= (s >> 1 & 1) << v
		w2 |= (s >> 2 & 1) << v
		w3 |= (s >> 3 & 1) << v
	}
	y0, y1, y2, y3 := sigma0Planes(x0, x1, x2, x3)
	const m = 0xFFFF
	if y0&m != w0 || y1&m != w1 || y2&m != w2 || y3&m != w3 {
		t.Fatalf("sigma0 circuit disagrees with table: got %x %x %x %x want %x %x %x %x",
			y0&m, y1&m, y2&m, y3&m, w0, w1, w2, w3)
	}
}

// TestTranspose64 pins the plane convention (out[p] bit L == in[L] bit p)
// and the involution property the kernel relies on for the inverse.
func TestTranspose64(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var a, b [64]uint64
	for i := range a {
		a[i] = r.Uint64()
	}
	b = a
	transpose64(&b)
	for L := 0; L < 64; L++ {
		for p := 0; p < 64; p++ {
			if b[p]>>L&1 != a[L]>>p&1 {
				t.Fatalf("transpose: plane %d lane %d mismatch", p, L)
			}
		}
	}
	transpose64(&b)
	if b != a {
		t.Fatal("transpose is not an involution")
	}
}

// TestSlicedTablesShape sanity-checks the probe-derived wirings: the
// diffusion layers are exactly-3-source (Almost-MDS circulant), the tweak
// advances carry exactly one multi-source fix per LFSR cell bit.
func TestSlicedTablesShape(t *testing.T) {
	if len(msTab128) != 128 || len(cmTab128) != 128 || len(msTab64) != 64 || len(cmTab64) != 64 {
		t.Fatal("diffusion table sizes wrong")
	}
	// QARMA-128: the 8-bit LFSR feeds 4 taps into bit 0 of each of the 4
	// LFSR cells; QARMA-64: the 4-bit LFSR feeds 2 taps into bit 3.
	if got := len(advTab128.fix); got != 4 {
		t.Fatalf("adv128 fix count = %d, want 4", got)
	}
	for _, fx := range advTab128.fix {
		if fx.n != 4 {
			t.Fatalf("adv128 fix width = %d, want 4", fx.n)
		}
	}
	if got := len(advTab64.fix); got != 4 {
		t.Fatalf("adv64 fix count = %d, want 4", got)
	}
	for _, fx := range advTab64.fix {
		if fx.n != 2 {
			t.Fatalf("adv64 fix width = %d, want 2", fx.n)
		}
	}
}

// TestEncryptBlocksMatchesScalar quick-checks the sliced QARMA-128 kernel
// against per-block Encrypt across round counts and every batch length
// around the lane and crossover boundaries.
func TestEncryptBlocksMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	lengths := []int{1, 2, minSliced128 - 1, minSliced128, 17, 63, 64, 65, 100, 128, 130}
	for _, rounds := range []int{4, DefaultRounds, MaxRounds} {
		key := make([]byte, KeySize)
		r.Read(key)
		c, err := NewCipher(key, rounds)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range lengths {
			src := make([]Block, n)
			tweaks := make([]Block, n)
			dst := make([]Block, n)
			for i := range src {
				r.Read(src[i][:])
				r.Read(tweaks[i][:])
			}
			c.EncryptBlocks(dst, src, tweaks)
			for i := range src {
				if want := c.Encrypt(src[i], tweaks[i]); dst[i] != want {
					t.Fatalf("rounds=%d n=%d lane %d: sliced %x != scalar %x", rounds, n, i, dst[i], want)
				}
			}
			// In-place operation (dst aliasing src) must give the same.
			inPlace := append([]Block(nil), src...)
			c.EncryptBlocks(inPlace, inPlace, tweaks)
			for i := range src {
				if inPlace[i] != dst[i] {
					t.Fatalf("rounds=%d n=%d lane %d: aliased output differs", rounds, n, i)
				}
			}
		}
	}
}

// TestEncryptBlocks64MatchesScalar is the QARMA-64 counterpart.
func TestEncryptBlocks64MatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	lengths := []int{1, minSliced64 - 1, minSliced64, 13, 63, 64, 65, 200}
	for _, rounds := range []int{4, DefaultRounds64, MaxRounds64} {
		key := make([]byte, Key64Size)
		r.Read(key)
		c, err := NewCipher64(key, rounds)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range lengths {
			src := make([]uint64, n)
			tweaks := make([]uint64, n)
			dst := make([]uint64, n)
			for i := range src {
				src[i], tweaks[i] = r.Uint64(), r.Uint64()
			}
			c.EncryptBlocks(dst, src, tweaks)
			for i := range src {
				if want := c.Encrypt(src[i], tweaks[i]); dst[i] != want {
					t.Fatalf("rounds=%d n=%d lane %d: sliced %x != scalar %x", rounds, n, i, dst[i], want)
				}
			}
			inPlace := append([]uint64(nil), src...)
			c.EncryptBlocks(inPlace, inPlace, tweaks)
			for i := range src {
				if inPlace[i] != dst[i] {
					t.Fatalf("rounds=%d n=%d lane %d: aliased output differs", rounds, n, i)
				}
			}
		}
	}
}

// BenchmarkEncryptBlocks128 times one group of n blocks on each path: one
// sliced pass (whose cost barely depends on n) against n scalar Encrypt
// calls. The smallest n where the sliced pass wins sets minSliced128.
func BenchmarkEncryptBlocks128(b *testing.B) {
	c, err := NewCipher(make([]byte, KeySize), DefaultRounds)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	src := make([]Block, slicedLanes)
	tweaks := make([]Block, slicedLanes)
	dst := make([]Block, slicedLanes)
	for i := range src {
		r.Read(src[i][:])
		r.Read(tweaks[i][:])
	}
	for _, n := range []int{4, 8, 16, 24, 28, 32, 36, 40, 44, 48, 56, 64} {
		b.Run(fmt.Sprintf("sliced/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * BlockSize))
			for i := 0; i < b.N; i++ {
				c.encryptSliced128(dst[:n], src[:n], tweaks[:n])
			}
		})
		b.Run(fmt.Sprintf("scalar/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * BlockSize))
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					dst[j] = c.Encrypt(src[j], tweaks[j])
				}
			}
		})
	}
}

func BenchmarkEncryptBlocks64(b *testing.B) {
	c, err := NewCipher64(make([]byte, Key64Size), DefaultRounds64)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	src := make([]uint64, 64)
	tweaks := make([]uint64, 64)
	dst := make([]uint64, 64)
	for i := range src {
		src[i], tweaks[i] = r.Uint64(), r.Uint64()
	}
	b.Run("sliced64lanes", func(b *testing.B) {
		b.SetBytes(int64(64 * Block64Size))
		for i := 0; i < b.N; i++ {
			c.EncryptBlocks(dst, src, tweaks)
		}
	})
	b.Run("scalar64calls", func(b *testing.B) {
		b.SetBytes(int64(64 * Block64Size))
		for i := 0; i < b.N; i++ {
			for j := range src {
				dst[j] = c.Encrypt(src[j], tweaks[j])
			}
		}
	})
}
