package mac

import (
	"math"
	"testing"
	"testing/quick"

	"ptguard/internal/qarma"
	"ptguard/internal/stats"
)

func testAuth(tb testing.TB, opts ...Option) *Authenticator {
	tb.Helper()
	key := make([]byte, KeySize)
	r := stats.NewRNG(0xBEEF)
	for i := range key {
		key[i] = byte(r.Uint64())
	}
	a, err := New(key, opts...)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return a
}

func randLine(r *stats.RNG) [LineBytes]byte {
	var l [LineBytes]byte
	for i := range l {
		l[i] = byte(r.Uint64())
	}
	return l
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		keyLen  int
		opts    []Option
		wantErr bool
	}{
		{name: "default", keyLen: 32},
		{name: "bad key", keyLen: 16, wantErr: true},
		{name: "64-bit tag", keyLen: 32, opts: []Option{WithTagBits(64)}},
		{name: "zero tag", keyLen: 32, opts: []Option{WithTagBits(0)}, wantErr: true},
		{name: "oversized tag", keyLen: 32, opts: []Option{WithTagBits(129)}, wantErr: true},
		{name: "bad rounds", keyLen: 32, opts: []Option{WithRounds(2)}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(make([]byte, tt.keyLen), tt.opts...)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestComputeDeterministic(t *testing.T) {
	a := testAuth(t)
	r := stats.NewRNG(1)
	line := randLine(r)
	t1 := a.Compute(line, 0x1000)
	t2 := a.Compute(line, 0x1000)
	if !t1.Equal(t2) {
		t.Error("same line and address produced different MACs")
	}
	if t1.Bits() != DefaultTagBits {
		t.Errorf("tag width = %d, want %d", t1.Bits(), DefaultTagBits)
	}
}

func TestComputeAddressBinding(t *testing.T) {
	// §IV-G: the address is a MAC input, so relocating a line must change
	// its MAC (prevents splicing a valid PTE line to another address).
	a := testAuth(t)
	r := stats.NewRNG(2)
	line := randLine(r)
	if a.Compute(line, 0x1000).Equal(a.Compute(line, 0x2000)) {
		t.Error("MAC identical at different addresses")
	}
}

func TestComputeDataSensitivity(t *testing.T) {
	a := testAuth(t)
	r := stats.NewRNG(3)
	for trial := 0; trial < 50; trial++ {
		line := randLine(r)
		base := a.Compute(line, 0x4000)
		bit := r.Intn(512)
		line[bit/8] ^= 1 << (bit % 8)
		got := a.Compute(line, 0x4000)
		d, err := base.HammingDistance(got)
		if err != nil {
			t.Fatal(err)
		}
		if d == 0 {
			t.Fatal("single data bit flip left MAC unchanged")
		}
	}
}

func TestComputeChunkPermutationSensitive(t *testing.T) {
	// The per-chunk address binding must prevent swapping two 16-byte
	// chunks without changing the MAC.
	a := testAuth(t)
	r := stats.NewRNG(4)
	line := randLine(r)
	swapped := line
	copy(swapped[0:16], line[16:32])
	copy(swapped[16:32], line[0:16])
	if a.Compute(line, 0x8000).Equal(a.Compute(swapped, 0x8000)) {
		t.Error("chunk swap left MAC unchanged")
	}
}

func TestKeySeparation(t *testing.T) {
	a1 := testAuth(t)
	key2 := make([]byte, KeySize)
	key2[0] = 1
	a2, err := New(key2)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	line := randLine(r)
	if a1.Compute(line, 0).Equal(a2.Compute(line, 0)) {
		t.Error("different keys produced same MAC")
	}
}

func TestZeroLineTagStable(t *testing.T) {
	a := testAuth(t)
	z1, z2 := a.ZeroLineTag(), a.ZeroLineTag()
	if !z1.Equal(z2) {
		t.Error("ZeroLineTag not deterministic")
	}
	var zero Tag
	zero.bits = DefaultTagBits
	if z1.Equal(zero) {
		t.Error("ZeroLineTag is all-zero: chunk outputs cancelled")
	}
}

func TestTagBitsOption(t *testing.T) {
	a := testAuth(t, WithTagBits(64))
	r := stats.NewRNG(6)
	tag := a.Compute(randLine(r), 0)
	if tag.Bits() != 64 {
		t.Errorf("Bits = %d, want 64", tag.Bits())
	}
	for i := 64; i < 128; i++ {
		if tagBit(tag, i) != 0 {
			t.Fatalf("bit %d beyond width is set", i)
		}
	}
	if got := len(tagBytes(tag)); got != 8 {
		t.Errorf("significant bytes = %d, want 8", got)
	}
}

func TestSoftMatch(t *testing.T) {
	a := testAuth(t)
	r := stats.NewRNG(7)
	tag := a.Compute(randLine(r), 0x10)

	flipped := tag
	for i := 0; i < 4; i++ {
		flipped = flipped.FlipBit(i * 7)
	}
	tests := []struct {
		name string
		k    int
		want bool
	}{
		{name: "k=3 rejects 4 flips", k: 3, want: false},
		{name: "k=4 accepts 4 flips", k: 4, want: true},
		{name: "k=0 exact rejects", k: 0, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tag.SoftMatch(flipped, tt.k)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("SoftMatch(k=%d) = %v, want %v", tt.k, got, tt.want)
			}
		})
	}
	if ok, err := tag.SoftMatch(tag, 0); err != nil || !ok {
		t.Error("exact SoftMatch with itself failed")
	}
}

func TestSoftMatchWidthMismatch(t *testing.T) {
	t96, _ := TagFromBytes([]byte{1}, 96)
	t64, _ := TagFromBytes([]byte{1}, 64)
	if _, err := t96.SoftMatch(t64, 1); err == nil {
		t.Error("width mismatch must error")
	}
}

func TestTagFromBytesMasksHighBits(t *testing.T) {
	raw := make([]byte, 16)
	for i := range raw {
		raw[i] = 0xFF
	}
	tag, err := TagFromBytes(raw, 96)
	if err != nil {
		t.Fatal(err)
	}
	for i := 96; i < 128; i++ {
		if tagBit(tag, i) != 0 {
			t.Fatalf("bit %d not masked", i)
		}
	}
	if _, err := TagFromBytes(raw, 0); err == nil {
		t.Error("zero width must error")
	}
}

// TestMaskTailMatchesBitLoop checks the word-mask maskTail against the
// bit-at-a-time loop it replaced, over random images at every tag width.
func TestMaskTailMatchesBitLoop(t *testing.T) {
	r := stats.NewRNG(0x7A11)
	for width := 1; width <= MaxTagBits; width++ {
		for trial := 0; trial < 64; trial++ {
			var got [16]byte
			for i := range got {
				got[i] = byte(r.Uint64())
			}
			want := got
			for i := width; i < MaxTagBits; i++ {
				want[i/8] &^= 1 << (i % 8)
			}
			maskTail(&got, width)
			if got != want {
				t.Fatalf("width %d: maskTail = %x, bit loop = %x", width, got, want)
			}
		}
	}
}

// tagBytes returns the SizeBytes significant bytes of t.
func tagBytes(t Tag) []byte {
	raw := t.Raw()
	return raw[:t.SizeBytes()]
}

// tagBit returns bit i of t's 128-bit backing store.
func tagBit(t Tag, i int) uint64 {
	raw := t.Raw()
	return uint64(raw[i/8] >> (i % 8) & 1)
}

// FlipBit returns a copy of t with bit i inverted.
func (t Tag) FlipBit(i int) Tag {
	if i < 0 || i >= t.bits {
		return t
	}
	out := t
	out.data[i/8] ^= 1 << (i % 8)
	return out
}

func TestFlipBitRoundTrip(t *testing.T) {
	f := func(raw [12]byte, bit uint8) bool {
		tag, err := TagFromBytes(raw[:], 96)
		if err != nil {
			return false
		}
		b := int(bit) % 96
		return tag.FlipBit(b).FlipBit(b).Equal(tag)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEscapeProbabilityEq1(t *testing.T) {
	// Paper §VI-E: n=96, k=4, G_max=372 → effective 66-bit MAC.
	nEff, err := EffectiveMACBits(96, 4, GMaxPaper)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nEff-66) > 1.0 {
		t.Errorf("n_eff = %.2f, want ~66", nEff)
	}
	// Without correction (k=0, one guess) the MAC keeps its full width.
	full, err := EffectiveMACBits(96, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-96) > 1e-9 {
		t.Errorf("n_eff(k=0,g=1) = %v, want 96", full)
	}
}

func TestEscapeProbabilityValidation(t *testing.T) {
	if _, err := EscapeProbability(0, 0, 1); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := EscapeProbability(96, -1, 1); err == nil {
		t.Error("k<0 must error")
	}
	if _, err := EscapeProbability(96, 97, 1); err == nil {
		t.Error("k>n must error")
	}
	if _, err := EscapeProbability(96, 4, 0); err == nil {
		t.Error("gMax=0 must error")
	}
}

func TestPickSoftMatchBudgetEq2(t *testing.T) {
	// Paper: at p_flip=1% on a 96-bit MAC, k=4 is the lowest budget with
	// <1% uncorrectable MACs.
	k, err := PickSoftMatchBudget(96, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Errorf("k = %d, want 4", k)
	}
	// At the DDR4-like p=1/512, a smaller budget suffices.
	k512, err := PickSoftMatchBudget(96, 1.0/512, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if k512 > 4 {
		t.Errorf("k(p=1/512) = %d, want <= 4", k512)
	}
}

func TestUncorrectableMACProbMonotonic(t *testing.T) {
	prev := 1.0
	for k := 0; k <= 8; k++ {
		p, err := UncorrectableMACProb(96, k, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if p > prev {
			t.Fatalf("tail not monotonic at k=%d", k)
		}
		prev = p
	}
}

func TestAttackYearsPaperClaims(t *testing.T) {
	// §IV-G: 96-bit MAC at 50ns per attempt → >1e14 years.
	if y := AttackYears(96, 50); y < 1e14 {
		t.Errorf("96-bit attack time = %.3g years, want > 1e14", y)
	}
	// §VI-C: 66-bit effective MAC → >1e4 years.
	if y := AttackYears(66, 50); y < 1e4 {
		t.Errorf("66-bit attack time = %.3g years, want > 1e4", y)
	}
}

// TestEncryptLineMatchesChunks: the line-level entry point, which expands
// the address once and steps to the other chunks by XOR when no chunk
// address carries, must match four independent chunk encryptions at every
// address, aligned or not, including lines that wrap past 2^64.
func TestEncryptLineMatchesChunks(t *testing.T) {
	for _, rounds := range []int{4, qarma.DefaultRounds, qarma.MaxRounds} {
		a := testAuth(t, WithRounds(rounds))
		if err := quick.Check(func(seed, addr uint64, low uint8) bool {
			line := randLine(stats.NewRNG(seed))
			addr = addr&^0x3F | uint64(low&0x3F)
			var out [chunks128]qarma.Block
			a.encryptLine(&out, &line, addr)
			for i := range out {
				if out[i] != a.encryptChunk(&line, addr, i) {
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("rounds=%d: encryptLine != encryptChunk: %v", rounds, err)
		}
	}
}

func BenchmarkCompute(b *testing.B) {
	a := testAuth(b)
	r := stats.NewRNG(9)
	line := randLine(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Compute(line, uint64(i)<<6)
	}
}

// TestMACBitUniformity checks the PRF quality the security analysis assumes
// (§IV-G "uniformly random hash values"): across many (line, address)
// inputs, every tag bit is set close to half the time, and adjacent-address
// tags are uncorrelated.
func TestMACBitUniformity(t *testing.T) {
	a := testAuth(t)
	r := stats.NewRNG(31337)
	const samples = 3000
	counts := make([]int, DefaultTagBits)
	var prev Tag
	agree := 0
	for i := 0; i < samples; i++ {
		tag := a.Compute(randLine(r), uint64(i)*64)
		for b := 0; b < DefaultTagBits; b++ {
			if tagBit(tag, b) == 1 {
				counts[b]++
			}
		}
		if i > 0 {
			d, err := tag.HammingDistance(prev)
			if err != nil {
				t.Fatal(err)
			}
			agree += DefaultTagBits - d
		}
		prev = tag
	}
	// Each bit should be near 50%: allow ±5 sigma of Binomial(3000, .5).
	for b, c := range counts {
		dev := float64(c) - samples/2
		if dev < 0 {
			dev = -dev
		}
		if dev > 5*27.4 { // sigma = sqrt(3000*0.25) ≈ 27.4
			t.Errorf("tag bit %d set %d/%d times", b, c, samples)
		}
	}
	// Consecutive tags agree on ~half their bits.
	meanAgree := float64(agree) / float64(samples-1)
	if meanAgree < 42 || meanAgree > 54 {
		t.Errorf("mean inter-tag agreement = %.1f/96 bits, want ~48", meanAgree)
	}
}

func TestQARMA64Authenticator(t *testing.T) {
	a := testAuth(t, WithQARMA64())
	if a.TagBits() != 64 {
		t.Fatalf("tag bits = %d, want 64", a.TagBits())
	}
	r := stats.NewRNG(8)
	line := randLine(r)
	t1 := a.Compute(line, 0x1000)
	if !t1.Equal(a.Compute(line, 0x1000)) {
		t.Error("not deterministic")
	}
	if t1.Equal(a.Compute(line, 0x1040)) {
		t.Error("not address-bound")
	}
	flipped := line
	flipped[33] ^= 1
	if t1.Equal(a.Compute(flipped, 0x1000)) {
		t.Error("not data-sensitive")
	}
	// Chunk swap must change the tag (per-chunk address binding).
	swapped := line
	copy(swapped[0:8], line[8:16])
	copy(swapped[8:16], line[0:8])
	if t1.Equal(a.Compute(swapped, 0x1000)) {
		t.Error("chunk swap left QARMA-64 MAC unchanged")
	}
	z := a.ZeroLineTag()
	if !z.Equal(a.ZeroLineTag()) {
		t.Error("zero tag not deterministic")
	}
	var zeroTag Tag
	zeroTag.bits = 64
	if z.Equal(zeroTag) {
		t.Error("zero tag cancelled to all-zero")
	}
}

func TestQARMA64WidthValidation(t *testing.T) {
	if _, err := New(make([]byte, KeySize), WithQARMA64(), WithTagBits(96)); err == nil {
		t.Error("96-bit tag with QARMA-64 accepted")
	}
	if _, err := New(make([]byte, KeySize), WithQARMA64(), WithTagBits(48)); err != nil {
		t.Errorf("48-bit tag with QARMA-64 rejected: %v", err)
	}
}
