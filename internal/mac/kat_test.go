package mac

import (
	"encoding/hex"
	"testing"
)

// Known-answer vectors for the MAC unit, recorded from the SWAR
// implementation that preceded the table-driven cipher kernel. Every tag
// embedded in a PTE, and so every simulated and correction result, depends
// on these exact values; a change to the cipher or to the line-level tweak
// expansion that moves any of them is a change of results, not a speed-up.

const katKey = "d0c4eb97db7e8dcbd63b662036a308c3ba4c32e28dd29acc296f2394d95e4b2b"

// katConfigs are the tag widths the vectors cover: the paper's 96 bits and
// the 64-bit design point of §VII-A.
var katConfigs = map[string]int{
	"qarma128-96": 96,
	"qarma128-64": 64,
}

// katLines are the line images the vectors refer to by index; line 0 is
// the all-zero line.
var katLines = []string{
	"00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"0ae41f2b90b292fc947b0e6c08a4fea511c2f0456f3164ec81d6e136f2e62ff66f74f2597ddb99bef2fe31b7425db7189ecc8e25c41474966395084a58d42f85",
	"1c8ef0eb9fbe1b03e2d55beed0fa5421f306d7b1a3b9998a8a0dd0557ad72e08167ae6615bb786a2bb1bf44cfe0e1c02991e6baa353975812ffaacbbeb7d1b1d",
	"8d786d12319e370935d5770f4e66a530b6be61711eb3d222117e6d1b0aec7f911f67887ce8b7d0436b39cce1b4214fd639aae672d61d03ae81baaf3c5c1ad231",
	"b53fd337b602b389ac4c645f0b9bce1069a845950c86215267185438b5e1aacd739dc8037e009db49cfba8f0d1167480ae77d62e88627961a940fccb79842269",
	"81052a0011412635b8f010135983989bbf954bee67d1f79277da24a55296cca25da0b36cc0b164e45982be3d408df719bfa2d8b3677a4a0f3bb0e50628c4850b",
	"3be52f895a4bb13bf23c582801434118008a9ea847652f1766e941fe383e907355d012a8c02c85e40b6a8d37ed4bde527976e0deca75b3df904170e99d70bd9e",
	"f37fca91993c36579f5b8a73fc372aa03eb077a538501e9295213c5c982e9449f02ed73d0834462db4edd83c04534446d48dd66db53bd730f4a4fbd5ddeecc8c",
}

// katCompute pins Compute(katLines[line], addr). The addresses cover
// line-aligned inputs (one tweak expansion per line), addresses whose chunk
// index bits carry (0x...30, 0x...10), an unaligned address and one whose
// last chunk wraps past 2^64.
var katCompute = []struct {
	cfg  string
	addr uint64
	line int
	tag  string
}{
	{"qarma128-96", 0x0, 0, "024c98b5e1bc63a2d5efa981"},
	{"qarma128-96", 0x3fc0, 1, "bbe2cbaabf7cf8596bb28214"},
	{"qarma128-96", 0x7ffffffffffff40, 2, "a8645cbec65749dddcca5bd8"},
	{"qarma128-96", 0xffffffffffffffc0, 3, "35790835e02b666f61772f5a"},
	{"qarma128-96", 0x1234567, 4, "380a65e5e91bbcd304c85fb1"},
	{"qarma128-96", 0x12345630, 5, "4240fcdb44c559ebeecb47b4"},
	{"qarma128-96", 0x12345610, 6, "a6a5de0920e2ae18b1ab7706"},
	{"qarma128-96", 0xfffffffffffffff8, 7, "0adcfb1a0c14d67083222825"},
	{"qarma128-64", 0x0, 0, "024c98b5e1bc63a2"},
	{"qarma128-64", 0x3fc0, 1, "bbe2cbaabf7cf859"},
	{"qarma128-64", 0x7ffffffffffff40, 2, "a8645cbec65749dd"},
	{"qarma128-64", 0xffffffffffffffc0, 3, "35790835e02b666f"},
	{"qarma128-64", 0x1234567, 4, "380a65e5e91bbcd3"},
	{"qarma128-64", 0x12345630, 5, "4240fcdb44c559eb"},
	{"qarma128-64", 0x12345610, 6, "a6a5de0920e2ae18"},
	{"qarma128-64", 0xfffffffffffffff8, 7, "0adcfb1a0c14d670"},
}

// katZero pins ZeroLineTag.
var katZero = []struct{ cfg, tag string }{
	{"qarma128-96", "48627507cdf4c97444cfe198"},
	{"qarma128-64", "48627507cdf4c974"},
}

// katDelta pins ComputeDelta against a cache primed by Precompute: the
// candidate is katLines[base] with 0xA5 XORed into each listed byte.
var katDelta = []struct {
	cfg   string
	addr  uint64
	base  int
	flips []int
	tag   string
	enc   int
}{
	{"qarma128-96", 0x5a5a40, 1, nil, "b5b01f19fc8e6d18088220ca", 0},
	{"qarma128-96", 0x5a5a40, 1, []int{5}, "d4cde3b66c51fb7ec37e6f63", 1},
	{"qarma128-96", 0x5a5a40, 1, []int{17, 40}, "50d17e2a6d676b79c230e73d", 2},
	{"qarma128-96", 0x5a5a40, 1, []int{0, 16, 32, 48}, "c089c97ae5450907d2b9caf7", 4},
	{"qarma128-96", 0x5a5a40, 1, []int{63}, "6f8de56e5474a7bedc90e746", 1},
	{"qarma128-96", 0x5a5a58, 2, nil, "ef21ebc5597cc4f5a2882a3d", 0},
	{"qarma128-96", 0x5a5a58, 2, []int{5}, "0f52aa687494a721ee511ebf", 1},
	{"qarma128-96", 0x5a5a58, 2, []int{17, 40}, "70d6790fc8f4d6a278428523", 2},
	{"qarma128-96", 0x5a5a58, 2, []int{0, 16, 32, 48}, "05a8a2735cc266be468035f7", 4},
	{"qarma128-96", 0x5a5a58, 2, []int{63}, "bc1f091d79740b8fbb151690", 1},
	{"qarma128-64", 0x5a5a40, 1, nil, "b5b01f19fc8e6d18", 0},
	{"qarma128-64", 0x5a5a40, 1, []int{5}, "d4cde3b66c51fb7e", 1},
	{"qarma128-64", 0x5a5a40, 1, []int{17, 40}, "50d17e2a6d676b79", 2},
	{"qarma128-64", 0x5a5a40, 1, []int{0, 16, 32, 48}, "c089c97ae5450907", 4},
	{"qarma128-64", 0x5a5a40, 1, []int{63}, "6f8de56e5474a7be", 1},
	{"qarma128-64", 0x5a5a58, 2, nil, "ef21ebc5597cc4f5", 0},
	{"qarma128-64", 0x5a5a58, 2, []int{5}, "0f52aa687494a721", 1},
	{"qarma128-64", 0x5a5a58, 2, []int{17, 40}, "70d6790fc8f4d6a2", 2},
	{"qarma128-64", 0x5a5a58, 2, []int{0, 16, 32, 48}, "05a8a2735cc266be", 4},
	{"qarma128-64", 0x5a5a58, 2, []int{63}, "bc1f091d79740b8f", 1},
}

func katAuth(t *testing.T, cfg string) *Authenticator {
	t.Helper()
	key, err := hex.DecodeString(katKey)
	if err != nil {
		t.Fatal(err)
	}
	tagBits, ok := katConfigs[cfg]
	if !ok {
		t.Fatalf("unknown config %q", cfg)
	}
	a, err := New(key, tagBits)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func katLine(t *testing.T, i int) [LineBytes]byte {
	t.Helper()
	var l [LineBytes]byte
	b, err := hex.DecodeString(katLines[i])
	if err != nil || len(b) != LineBytes {
		t.Fatalf("katLines[%d]: %v", i, err)
	}
	copy(l[:], b)
	return l
}

func TestComputeKnownAnswers(t *testing.T) {
	for _, v := range katCompute {
		a := katAuth(t, v.cfg)
		tag := a.Compute(katLine(t, v.line), v.addr)
		if got := hex.EncodeToString(tagBytes(tag)); got != v.tag {
			t.Errorf("%s addr %#x line %d: tag %s, want %s", v.cfg, v.addr, v.line, got, v.tag)
		}
	}
}

func TestZeroLineTagKnownAnswers(t *testing.T) {
	for _, v := range katZero {
		if got := hex.EncodeToString(tagBytes(katAuth(t, v.cfg).ZeroLineTag())); got != v.tag {
			t.Errorf("%s: zero-line tag %s, want %s", v.cfg, got, v.tag)
		}
	}
}

func TestComputeDeltaKnownAnswers(t *testing.T) {
	for _, v := range katDelta {
		a := katAuth(t, v.cfg)
		base := katLine(t, v.base)
		cc := a.Precompute(base, v.addr)
		cand := base
		for _, f := range v.flips {
			cand[f] ^= 0xA5
		}
		tag, enc := a.ComputeDelta(&cc, &cand)
		if got := hex.EncodeToString(tagBytes(tag)); got != v.tag || enc != v.enc {
			t.Errorf("%s addr %#x flips %v: tag %s after %d encryptions, want %s after %d",
				v.cfg, v.addr, v.flips, got, enc, v.tag, v.enc)
		}
	}
}
