package dist

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDistFrame throws arbitrary bytes at the wire-format decoder: it
// must never panic, and any line it does accept must re-encode to a
// semantically identical message (the coordinator treats decoded frames
// as trusted, so acceptance has to imply integrity).
func FuzzDistFrame(f *testing.F) {
	seedMsgs := []Message{
		{Type: MsgHello, Magic: Magic, Version: Version, Kind: KindSlowdown,
			Spec: json.RawMessage(`{"Lines":10}`), Seed: 42, HeartbeatMS: 200},
		{Type: MsgJob, Key: "correction/p0"},
		{Type: MsgResult, Key: "correction/p0", Result: json.RawMessage(`{"x":1}`), ElapsedMS: 2.5},
		{Type: MsgError, Error: "boom"},
	}
	for _, m := range seedMsgs {
		line, err := EncodeFrame(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.TrimSuffix(line, []byte("\n")))
	}
	f.Add([]byte(`{"crc":"00000000","m":{"type":"bye"}}`))
	f.Add([]byte(`{"crc":"bad`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, line []byte) {
		m, err := DecodeFrame(line)
		if err != nil {
			return
		}
		if m.Type == "" {
			t.Fatal("DecodeFrame accepted a message with no type")
		}
		re, err := EncodeFrame(m)
		if err != nil {
			t.Fatalf("accepted message does not re-encode: %v", err)
		}
		m2, err := DecodeFrame(bytes.TrimSuffix(re, []byte("\n")))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		j1, _ := json.Marshal(m)
		j2, _ := json.Marshal(m2)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("roundtrip drift: %s vs %s", j1, j2)
		}
	})
}
