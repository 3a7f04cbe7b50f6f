package qarma

import (
	"encoding/hex"
	"testing"
)

// Known-answer vectors for the 128-bit cipher, recorded from the SWAR
// implementation that preceded the table-driven kernel. Each row holds in
// both directions: Encrypt(pt, tweak) = ct and Decrypt(ct, tweak) = pt. The
// first row of each round count was recorded by encrypting a random block,
// the second by decrypting one, and the third is the all-zero key and block
// under an all-ones tweak. The reference round structure in fast_test.go
// must reproduce them too.
var katVectors = []struct {
	rounds             int
	key, tweak, pt, ct string
}{
	{4, "9166385c280cf1d8ace384c166c597698b2068b0db4b0770d54083d51875cda9", "fb4567f0f263502b4530f923f9917b41", "7f2941d7ad0468754413cfad8c428997", "f14b085068f5abb32bc27f778856719f"},
	{4, "76b31e61928940d036a08f9c1f0ff44136cadb3d159822c3936e466502a304d1", "46052a9f12d6996aea543f7432a5e889", "0010b615185d7aa8e9dc5bf2128b5367", "a6ddaa8bea0951d4b01f6da45ee05238"},
	{4, "0000000000000000000000000000000000000000000000000000000000000000", "ffffffffffffffffffffffffffffffff", "00000000000000000000000000000000", "c2047e38b195031c1c5fb72c5735ca2a"},
	{8, "12b14a52e1f6fdb46320fcd7c495dfa305331063cb0498dd9fc35c1b920157a9", "517f631bb562df2e94ef5ce661bf9eb9", "dd1b73023fd3dac3c8ef27c0851f941f", "78dff54a089d469428903c39cc9810c7"},
	{8, "2fa003dd00b303d5af895f9c1044607eb5d8b95584222ca30f3334e157bf727a", "f980c2d0fb144166d1bdc1bf10d2740d", "59e0078aa5738d11c2990c5956ba857d", "edc801d96095dd0eb53e09c9c975f0b7"},
	{8, "0000000000000000000000000000000000000000000000000000000000000000", "ffffffffffffffffffffffffffffffff", "00000000000000000000000000000000", "473c961bdd41b5258867c4789b4ce8d4"},
	{15, "84e2df939686a0c8fef587fd73d3c907736615fffbae60e57091806df0e8a57f", "848a8d58c7d2b33e465c356e620bdbdc", "6ba9c6ee8819f332ce722b485384a831", "4f233c6da0c4ee9af512547b7cacdb96"},
	{15, "bc70bac891096ca2b4cb1559b879d5d0fe953d396c223d4a21523bd2f5c67355", "b51f68a19ea18b1cb730fe254faa5000", "3ef90614a30a373eb0346c969827ff6b", "8132a13c8527216bc0ac8e477da502d0"},
	{15, "0000000000000000000000000000000000000000000000000000000000000000", "ffffffffffffffffffffffffffffffff", "00000000000000000000000000000000", "43cdc9c1d07142773c5f34c0e5ded582"},
}

func mustHexBlock(t *testing.T, s string) Block {
	t.Helper()
	var b Block
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != BlockSize {
		t.Fatalf("bad block %q: %v", s, err)
	}
	copy(b[:], raw)
	return b
}

func TestKnownAnswers(t *testing.T) {
	for _, v := range katVectors {
		key, err := hex.DecodeString(v.key)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCipher(key, v.rounds)
		if err != nil {
			t.Fatal(err)
		}
		tw, pt, ct := mustHexBlock(t, v.tweak), mustHexBlock(t, v.pt), mustHexBlock(t, v.ct)
		if got := c.Encrypt(pt, tw); got != ct {
			t.Errorf("rounds=%d key %.8s...: Encrypt = %x, want %s", v.rounds, v.key, got, v.ct)
		}
		if got := c.Decrypt(ct, tw); got != pt {
			t.Errorf("rounds=%d key %.8s...: Decrypt = %x, want %s", v.rounds, v.key, got, v.pt)
		}
		if got := referenceEncrypt(c, pt, tw); got != ct {
			t.Errorf("rounds=%d key %.8s...: referenceEncrypt = %x, want %s", v.rounds, v.key, got, v.ct)
		}
		if got := referenceDecrypt(c, ct, tw); got != pt {
			t.Errorf("rounds=%d key %.8s...: referenceDecrypt = %x, want %s", v.rounds, v.key, got, v.pt)
		}
	}
}
