package mac

import (
	"testing"

	"ptguard/internal/stats"
)

// TestComputeDeltaBatchMatchesScalar: pooled candidate scoring must return
// the same tags and per-candidate encryption counts as sequential
// ComputeDelta calls, for both ciphers and candidate sets spanning multiple
// pooled groups.
func TestComputeDeltaBatchMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{name: "qarma128"},
		{name: "qarma64", opts: []Option{WithQARMA64()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := testAuth(t, tc.opts...)
			r := stats.NewRNG(0xDE17A)
			base := randLine(r)
			addr := r.Uint64() &^ 0x3F
			cc := a.Precompute(base, addr)

			for _, n := range []int{1, 2, deltaGroup - 1, deltaGroup, deltaGroup + 5, 3 * deltaGroup} {
				cands := make([][LineBytes]byte, n)
				for i := range cands {
					cands[i] = base
					// 0..3 random byte edits: clean, single- and
					// multi-chunk candidates all appear.
					for k, e := 0, r.Intn(4); k < e; k++ {
						cands[i][r.Intn(LineBytes)] ^= byte(1 + r.Intn(255))
					}
				}
				tags := make([]Tag, n)
				enc := make([]int, n)
				total := a.ComputeDeltaBatch(tags, enc, &cc, cands)
				sum := 0
				for i := range cands {
					wantTag, wantEnc := a.ComputeDelta(&cc, &cands[i])
					if !tags[i].Equal(wantTag) {
						t.Fatalf("n=%d cand %d: tag mismatch", n, i)
					}
					if enc[i] != wantEnc {
						t.Fatalf("n=%d cand %d: enc=%d want %d", n, i, enc[i], wantEnc)
					}
					sum += wantEnc
				}
				if total != sum {
					t.Fatalf("n=%d: total=%d want %d", n, total, sum)
				}
			}
		})
	}
}

// Zero-allocation gate for the batch entry point, both ciphers.
func TestBatchZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{name: "qarma128"},
		{name: "qarma64", opts: []Option{WithQARMA64()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := testAuth(t, tc.opts...)
			r := stats.NewRNG(0xA110C)
			const n = 40 // two-and-a-half sliced groups under QARMA-128
			base := randLine(r)
			cands := make([][LineBytes]byte, n)
			for i := range cands {
				cands[i] = base
				cands[i][i%LineBytes] ^= 0x40
			}
			tags := make([]Tag, n)
			enc := make([]int, n)
			cc := a.Precompute(base, r.Uint64()&^0x3F)

			if g := testing.AllocsPerRun(50, func() { a.ComputeDeltaBatch(tags, enc, &cc, cands) }); g != 0 {
				t.Errorf("ComputeDeltaBatch allocates %.1f objects/op, want 0", g)
			}
		})
	}
}

// FuzzBatchMAC cross-checks the batch entry point against the scalar path
// on fuzzer-chosen line content, addresses, batch sizes and cipher configs.
func FuzzBatchMAC(f *testing.F) {
	f.Add(uint64(1), uint8(1), false, []byte{0})
	f.Add(uint64(2), uint8(17), false, []byte{0xFF, 0x40, 7})
	f.Add(uint64(3), uint8(9), true, []byte("batch"))
	f.Add(uint64(0xDEAD), uint8(65), true, []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, use64 bool, data []byte) {
		var opts []Option
		if use64 {
			opts = append(opts, WithQARMA64())
		}
		key := make([]byte, KeySize)
		r := stats.NewRNG(seed)
		for i := range key {
			key[i] = byte(r.Uint64())
		}
		a, err := New(key, opts...)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + int(nRaw)%80
		cands := make([][LineBytes]byte, n)
		for i := range cands {
			cands[i] = randLine(r)
			// Mix fuzzer bytes into the line so the corpus drives content.
			for k, b := range data {
				cands[i][(k+i)%LineBytes] ^= b
			}
		}
		// Candidate scoring against the first line's cache.
		cc := a.Precompute(cands[0], r.Uint64()&^0x3F)
		tags := make([]Tag, n)
		enc := make([]int, n)
		a.ComputeDeltaBatch(tags, enc, &cc, cands)
		for i := range cands {
			wantTag, wantEnc := a.ComputeDelta(&cc, &cands[i])
			if !tags[i].Equal(wantTag) || enc[i] != wantEnc {
				t.Fatalf("cand %d/%d: ComputeDeltaBatch != ComputeDelta", i, n)
			}
		}
	})
}

// BenchmarkComputeDeltaBatch times one 64-candidate flip-and-check wave
// under QARMA-128: single-bit flips of one line scored against its primed
// chunk cache. Each candidate dirties one chunk, as in step 2 of the
// correction search, whose first wave flips the bits of the first PTEs.
func BenchmarkComputeDeltaBatch(b *testing.B) {
	a := testAuth(b)
	base := randLine(stats.NewRNG(0xF1A5))
	cc := a.Precompute(base, 0x7_3000)
	cands := make([][LineBytes]byte, deltaGroup)
	for i := range cands {
		cands[i] = base
		cands[i][i/8] ^= 1 << (i % 8)
	}
	tags := make([]Tag, len(cands))
	enc := make([]int, len(cands))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ComputeDeltaBatch(tags, enc, &cc, cands)
	}
}
