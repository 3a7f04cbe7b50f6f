package mac

import (
	"testing"
	"testing/quick"

	"ptguard/internal/qarma"
	"ptguard/internal/stats"
)

// batchAuth builds an Authenticator from a derived key for the batch
// equivalence properties.
func batchAuth(tb testing.TB, seed uint64, opts ...Option) *Authenticator {
	tb.Helper()
	key := make([]byte, KeySize)
	r := stats.NewRNG(seed)
	for i := range key {
		key[i] = byte(r.Uint64())
	}
	a, err := New(key, opts...)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return a
}

// TestBatchMatchesScalarQuick is the batch/scalar equivalence property:
// ComputeBatch must match Compute bit-for-bit across tag widths
// (64/96/128), round counts, both ciphers, and ragged batch tails
// (1..lanes-1 lines as well as multi-group lengths).
func TestBatchMatchesScalarQuick(t *testing.T) {
	prop := func(seed uint64, nSel, use64Sel, roundSel, widthSel uint8) bool {
		use64 := use64Sel&1 == 1
		var opts []Option
		if use64 {
			opts = append(opts, WithQARMA64(),
				WithRounds(4+int(roundSel)%(qarma.MaxRounds64-3)),
				WithTagBits(64))
		} else {
			widths := []int{64, 96, 128}
			opts = append(opts,
				WithRounds(4+int(roundSel)%(qarma.MaxRounds-3)),
				WithTagBits(widths[int(widthSel)%len(widths)]))
		}
		a := batchAuth(t, seed|1, opts...)

		// Sweep the ragged range around one sliced group (64 cipher lanes)
		// plus a tail.
		lanes := 64 / a.Chunks()
		n := 1 + int(nSel)%(2*lanes+3)
		r := stats.NewRNG(seed ^ 0xBA7C4)
		lines := make([][LineBytes]byte, n)
		addrs := make([]uint64, n)
		for i := range lines {
			lines[i] = randLine(r)
			addrs[i] = r.Uint64() &^ 0x3F
		}

		tags := make([]Tag, n)
		a.ComputeBatch(tags, lines, addrs)
		for i := range lines {
			if !tags[i].Equal(a.Compute(lines[i], addrs[i])) {
				t.Logf("ComputeBatch line %d/%d diverges from Compute", i, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

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

// Zero-allocation gates for both batch entry points, both ciphers.
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
			lines := make([][LineBytes]byte, n)
			addrs := make([]uint64, n)
			for i := range lines {
				lines[i] = randLine(r)
				addrs[i] = r.Uint64() &^ 0x3F
			}
			tags := make([]Tag, n)
			cands := make([][LineBytes]byte, n)
			for i := range cands {
				cands[i] = lines[0]
				cands[i][i%LineBytes] ^= 0x40
			}
			enc := make([]int, n)
			cc := a.Precompute(lines[0], addrs[0])

			if g := testing.AllocsPerRun(50, func() { a.ComputeBatch(tags, lines, addrs) }); g != 0 {
				t.Errorf("ComputeBatch allocates %.1f objects/op, want 0", g)
			}
			if g := testing.AllocsPerRun(50, func() { a.ComputeDeltaBatch(tags, enc, &cc, cands) }); g != 0 {
				t.Errorf("ComputeDeltaBatch allocates %.1f objects/op, want 0", g)
			}
		})
	}
}

// FuzzBatchMAC cross-checks the whole batch engine against the scalar path
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
		lines := make([][LineBytes]byte, n)
		addrs := make([]uint64, n)
		for i := range lines {
			lines[i] = randLine(r)
			// Mix fuzzer bytes into the line so the corpus drives content.
			for k, b := range data {
				lines[i][(k+i)%LineBytes] ^= b
			}
			addrs[i] = r.Uint64() &^ 0x3F
		}
		tags := make([]Tag, n)
		a.ComputeBatch(tags, lines, addrs)
		for i := range lines {
			if want := a.Compute(lines[i], addrs[i]); !tags[i].Equal(want) {
				t.Fatalf("line %d/%d: ComputeBatch != Compute", i, n)
			}
		}
		// Candidate scoring against the first line's cache.
		cc := a.Precompute(lines[0], addrs[0])
		cands := lines
		dtags := make([]Tag, n)
		enc := make([]int, n)
		a.ComputeDeltaBatch(dtags, enc, &cc, cands)
		for i := range cands {
			wantTag, wantEnc := a.ComputeDelta(&cc, &cands[i])
			if !dtags[i].Equal(wantTag) || enc[i] != wantEnc {
				t.Fatalf("cand %d/%d: ComputeDeltaBatch != ComputeDelta", i, n)
			}
		}
	})
}
