package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// buildJournal serialises a canonical v2 journal with n integer-result
// entries (job-i -> i*i+7) and returns its bytes. It uses the same frame
// writer as the live append path.
func buildJournal(t testing.TB, fingerprint string, n int) []byte {
	t.Helper()
	st := &journalState{
		completed: make(map[string]journalEntry),
		failures:  make(map[string]journalEntry),
		version:   journalVersion,
	}
	for i := 0; i < n; i++ {
		st.add(journalEntry{
			Key:      fmt.Sprintf("job-%d", i),
			Result:   json.RawMessage(strconv.Itoa(i*i + 7)),
			Attempts: 1,
		})
	}
	var buf bytes.Buffer
	if err := writeCompacted(&buf, fingerprint, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzJournalLoad feeds arbitrary bytes to the journal loader. Properties:
// it never panics, never errors except on a fingerprint mismatch, never
// accepts a journal whose header names a different campaign, never accepts
// a record unless the header names this campaign, never accepts a record
// without a valid CRC frame (a v1 plain entry included), and its surviving
// state round-trips exactly through an atomic compaction.
func FuzzJournalLoad(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(buildJournal(f, "fp", 3))
	f.Add([]byte(`{"journal":"ptguard-harness","version":1,"fingerprint":"fuzz-fingerprint"}` + "\n" +
		`{"key":"a","result":1,"attempts":1,"elapsed_ms":0.5}` + "\n"))
	f.Add([]byte(`{"journal":"ptguard-harness","version":2,"fingerprint":"other"}` + "\n"))
	f.Add([]byte(`{"crc":"00000000","e":{"key":"a","result":1}}` + "\n"))
	f.Add([]byte("{\"key\":\"torn\",\"resu"))
	f.Add([]byte("\n\n\r\n{not json}\n" + strings.Repeat("x", 4096)))
	// A valid record under a header that names no campaign, and under none.
	f.Add(buildJournal(f, "", 1))
	f.Add(bytes.SplitN(buildJournal(f, "", 1), []byte("\n"), 2)[1])
	f.Fuzz(func(t *testing.T, data []byte) {
		const fp = "fuzz-fingerprint"
		st, err := loadJournal(bytes.NewReader(data), fp)
		if err != nil {
			// The only allowed hard failure on in-memory bytes is the
			// fingerprint mismatch; everything else must degrade to
			// quarantine or torn-tail handling.
			if !strings.Contains(err.Error(), "different campaign") {
				t.Fatalf("unexpected hard error: %v", err)
			}
			return
		}
		// Never accept a journal that declares a different campaign, nor a
		// record unless the header declares this one.
		var h journalHeader
		first, _, _ := bytes.Cut(data, []byte("\n"))
		if json.Unmarshal(trimEOL(first), &h) != nil || h.Magic != journalMagic {
			h = journalHeader{}
		}
		if h.Fingerprint != "" && h.Fingerprint != fp {
			t.Fatalf("accepted journal with foreign fingerprint %q", h.Fingerprint)
		}
		if n := len(st.completed) + len(st.failures); n > 0 && h.Fingerprint != fp {
			t.Fatalf("accepted %d records under a header naming %q, want %q", n, h.Fingerprint, fp)
		}
		framed := make(map[string]bool)
		for _, line := range bytes.Split(data, []byte("\n")) {
			var fr journalFrame
			if json.Unmarshal(trimEOL(line), &fr) == nil && len(fr.Entry) > 0 && fr.CRC == frameCRC(fr.Entry) {
				framed[peekKey(fr.Entry)] = true
			}
		}
		for _, accepted := range []map[string]journalEntry{st.completed, st.failures} {
			for key := range accepted {
				if key == "" {
					t.Fatal("accepted record with empty key")
				}
				if !framed[key] {
					t.Fatalf("accepted %q without a valid CRC frame", key)
				}
			}
		}
		// Compaction round-trip: rewriting the surviving state and loading
		// it back must reproduce it exactly and come back clean.
		var buf bytes.Buffer
		if err := writeCompacted(&buf, fp, st); err != nil {
			t.Fatalf("compact: %v", err)
		}
		st2, err := loadJournal(&buf, fp)
		if err != nil {
			t.Fatalf("reload after compaction: %v", err)
		}
		if st2.dirty() {
			t.Fatalf("compacted journal still dirty: %d quarantined, version %d, torn=%v",
				len(st2.quarantined), st2.version, st2.tornTail)
		}
		if len(st2.completed) != len(st.completed) || len(st2.failures) != len(st.failures) {
			t.Fatalf("round-trip changed state: %d/%d completed, %d/%d failures",
				len(st2.completed), len(st.completed), len(st2.failures), len(st.failures))
		}
		for key, e := range st.completed {
			e2, ok := st2.completed[key]
			if !ok || !bytes.Equal(e.Result, e2.Result) {
				t.Fatalf("round-trip lost or changed %q", key)
			}
		}
	})
}

// FuzzJournalCorruption flips one byte anywhere in a valid v2 journal and
// asserts the CRC framing holds the line: every record the loader accepts
// decodes to exactly the value the original run produced — a corrupted
// record is quarantined or dropped, never silently accepted with wrong
// content.
func FuzzJournalCorruption(f *testing.F) {
	f.Add(uint8(3), uint32(40), byte(0x01))
	f.Add(uint8(5), uint32(0), byte(0xFF))
	f.Add(uint8(2), uint32(7), byte(0x20))
	f.Fuzz(func(t *testing.T, n uint8, off uint32, xor byte) {
		if xor == 0 {
			return // no-op flip
		}
		entries := int(n%6) + 2
		data := buildJournal(t, "fp", entries)
		pos := int(off) % len(data)
		data[pos] ^= xor
		st, err := loadJournal(bytes.NewReader(data), "fp")
		if err != nil {
			// Only a (corrupted-into-)foreign fingerprint may hard-fail.
			if !strings.Contains(err.Error(), "different campaign") {
				t.Fatalf("unexpected hard error: %v", err)
			}
			return
		}
		for key, e := range st.completed {
			var i int
			if !strings.HasPrefix(key, "job-") {
				t.Fatalf("accepted invented key %q", key)
			}
			if _, serr := fmt.Sscanf(key, "job-%d", &i); serr != nil || i < 0 || i >= entries {
				t.Fatalf("accepted invented key %q", key)
			}
			var got int
			if derr := e.decode(&got); derr != nil {
				t.Fatalf("accepted undecodable record %q: %v", key, derr)
			}
			if want := i*i + 7; got != want {
				t.Fatalf("CRC framing failed: %q = %d, want %d (flip at %d ^ %#x)",
					key, got, want, pos, xor)
			}
		}
	})
}
