package mac

import (
	"testing"

	"ptguard/internal/stats"
)

// TestComputeDeltaMatchesCompute: the incremental path must be
// byte-identical to the full recompute for any candidate, however many
// chunks are dirty, and must report exactly the dirty-chunk encryptions.
func TestComputeDeltaMatchesCompute(t *testing.T) {
	for _, tc := range []struct {
		name      string
		opts      []Option
		chunkSize int
	}{
		{name: "qarma128", chunkSize: 16},
		{name: "qarma64", opts: []Option{WithQARMA64()}, chunkSize: 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := testAuth(t, tc.opts...)
			r := stats.NewRNG(0xD17A)
			nChunks := LineBytes / tc.chunkSize
			for trial := 0; trial < 200; trial++ {
				base := randLine(r)
				addr := r.Uint64() &^ 0x3F
				cc := a.Precompute(base, addr)

				// Dirty 0..nChunks distinct chunks with random byte edits.
				cand := base
				dirty := map[int]bool{}
				for i, n := 0, r.Intn(nChunks+1); i < n; i++ {
					c := r.Intn(nChunks)
					if dirty[c] {
						continue
					}
					dirty[c] = true
					off := c*tc.chunkSize + r.Intn(tc.chunkSize)
					cand[off] ^= byte(1 + r.Intn(255))
				}

				got, enc := a.ComputeDelta(&cc, &cand)
				want := a.Compute(cand, addr)
				if !got.Equal(want) {
					t.Fatalf("trial %d: ComputeDelta != Compute with %d dirty chunks", trial, len(dirty))
				}
				if enc != len(dirty) {
					t.Fatalf("trial %d: %d chunk encryptions reported, want %d", trial, enc, len(dirty))
				}
			}
		})
	}
}

// TestComputeDeltaCleanCandidateIsFree: a candidate equal to the base costs
// zero cipher work (the §VI-D step-1 soft retry rides the cache for free).
func TestComputeDeltaCleanCandidateIsFree(t *testing.T) {
	a := testAuth(t)
	line := randLine(stats.NewRNG(7))
	cc := a.Precompute(line, 0x4000)
	got, enc := a.ComputeDelta(&cc, &line)
	if enc != 0 {
		t.Errorf("clean candidate cost %d encryptions, want 0", enc)
	}
	if want := a.Compute(line, 0x4000); !got.Equal(want) {
		t.Error("clean candidate tag mismatch")
	}
}

var sinkTag Tag

// AllocsPerRun gates: the MAC unit is the simulator's hottest loop and must
// never touch the heap.
func TestComputeZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{name: "qarma128"},
		{name: "qarma64", opts: []Option{WithQARMA64()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := testAuth(t, tc.opts...)
			line := randLine(stats.NewRNG(3))
			if n := testing.AllocsPerRun(200, func() { sinkTag = a.Compute(line, 0x8040) }); n != 0 {
				t.Errorf("Compute allocates %.1f objects/op, want 0", n)
			}
		})
	}
}

func TestComputeDeltaZeroAlloc(t *testing.T) {
	a := testAuth(t)
	r := stats.NewRNG(9)
	base := randLine(r)
	cc := a.Precompute(base, 0xC0C0)
	cand := base
	cand[17] ^= 0x10 // one dirty chunk
	if n := testing.AllocsPerRun(200, func() { sinkTag, _ = a.ComputeDelta(&cc, &cand) }); n != 0 {
		t.Errorf("ComputeDelta allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		cc2 := a.Precompute(base, 0xC0C0)
		sinkTag, _ = a.ComputeDelta(&cc2, &cand)
	}); n != 0 {
		t.Errorf("Precompute allocates %.1f objects/op, want 0", n)
	}
}

// TestRawRoundTrip: Raw is zero past SizeBytes, and its significant bytes
// fed back through TagFromBytes rebuild the tag, at byte-aligned and ragged
// widths.
func TestRawRoundTrip(t *testing.T) {
	line := randLine(stats.NewRNG(11))
	for _, width := range []int{64, 96, 100, 128} {
		tag := testAuth(t, WithTagBits(width)).Compute(line, 0x77C0)
		if got, want := tag.SizeBytes(), (width+7)/8; got != want {
			t.Fatalf("width %d: SizeBytes = %d, want %d", width, got, want)
		}
		raw := tag.Raw()
		for i := tag.SizeBytes(); i < len(raw); i++ {
			if raw[i] != 0 {
				t.Fatalf("width %d: Raw[%d] = %#x beyond SizeBytes, want 0", width, i, raw[i])
			}
		}
		back, err := TagFromBytes(raw[:tag.SizeBytes()], width)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(tag) {
			t.Errorf("width %d: TagFromBytes(Raw) = %x, want %x", width, back.Raw(), raw)
		}
	}
}
