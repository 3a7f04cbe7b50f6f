package dist

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"ptguard/internal/harness"
)

func TestFrameRoundtrip(t *testing.T) {
	msgs := []Message{
		{Type: MsgHello, Magic: Magic, Version: Version, Results: harness.ResultsVersion, Kind: KindSlowdown,
			Spec: json.RawMessage(`{"Lines":10}`), Seed: 42, HeartbeatMS: 200},
		{Type: MsgReady, Magic: Magic, Version: Version, Results: harness.ResultsVersion, Jobs: 12},
		{Type: MsgJob, Key: "correction/p0"},
		{Type: MsgHeartbeat, Key: "correction/p0"},
		{Type: MsgResult, Key: "correction/p0", Result: json.RawMessage(`{"x":1}`), ElapsedMS: 1.5},
		{Type: MsgResult, Key: "correction/p1", Error: "boom"},
		{Type: MsgError, Error: "bad handshake"},
		{Type: MsgBye},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		line, err := EncodeFrame(m)
		if err != nil {
			t.Fatalf("EncodeFrame(%v): %v", m.Type, err)
		}
		buf.Write(line)
	}
	r := newFrameReader(&buf)
	for i, want := range msgs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("Read #%d: %v", i, err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Errorf("message %d: got %s, want %s", i, gj, wj)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after all messages: got %v, want io.EOF", err)
	}
}

// TestGoldenFrames pins the wire format byte for byte: a coordinator and
// worker from different builds must agree on these exact lines.
func TestGoldenFrames(t *testing.T) {
	cases := []struct {
		msg    Message
		golden string
	}{
		{
			Message{Type: MsgJob, Key: "slowdown/leela/mac10"},
			`{"crc":"d85fb7ef","m":{"type":"job","key":"slowdown/leela/mac10"}}` + "\n",
		},
		{
			Message{Type: MsgHello, Magic: Magic, Version: Version, Results: 1, Kind: SyntheticSpec{}.Kind(),
				Spec: json.RawMessage(`{"jobs":2,"cost_ms":1}`), Seed: 7, HeartbeatMS: 200},
			`{"crc":"6caab9a0","m":{"type":"hello","magic":"ptguard-dist","version":2,"results":1,"kind":"synthetic","spec":{"jobs":2,"cost_ms":1},"seed":7,"heartbeat_ms":200}}` + "\n",
		},
	}
	for _, c := range cases {
		line, err := EncodeFrame(c.msg)
		if err != nil {
			t.Fatalf("EncodeFrame: %v", err)
		}
		if string(line) != c.golden {
			t.Errorf("wire format drifted:\n got  %s want %s", line, c.golden)
		}
		if _, err := DecodeFrame([]byte(strings.TrimSuffix(c.golden, "\n"))); err != nil {
			t.Errorf("golden line does not decode: %v", err)
		}
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	good, err := EncodeFrame(Message{Type: MsgBye})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"not json":       `{"crc":"00000000","m"`,
		"no message":     `{"crc":"00000000"}`,
		"crc mismatch":   `{"crc":"00000000","m":{"type":"bye"}}`,
		"no type":        `{"crc":"a3a6bf43","m":{}}`,
		"torn good line": string(good[:len(good)/2]),
	}
	for name, line := range cases {
		if _, err := DecodeFrame([]byte(line)); err == nil {
			t.Errorf("%s: DecodeFrame accepted %q", name, line)
		}
	}
	// Sanity: the intact good line still decodes.
	if _, err := DecodeFrame(bytes.TrimSuffix(good, []byte("\n"))); err != nil {
		t.Fatalf("good line rejected: %v", err)
	}
}

// serveInMemory runs Serve over in-memory pipes and returns a writer for
// coordinator->worker frames and a reader for worker->coordinator ones.
func serveInMemory(t *testing.T) (*frameWriter, *frameReader, chan error) {
	t.Helper()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		errc <- Serve(inR, outW)
		outW.Close()
	}()
	t.Cleanup(func() { inW.Close() })
	return newFrameWriter(inW), newFrameReader(outR), errc
}

// TestServeRejectsVersionMismatch: a worker refuses a coordinator of
// another protocol version, and one that expects another generation of
// job results (a worker built before or after a results change).
func TestServeRejectsVersionMismatch(t *testing.T) {
	for _, c := range []struct {
		version, results int
		want             string
	}{
		{Version + 1, harness.ResultsVersion, "protocol version mismatch"},
		{Version, harness.ResultsVersion + 1, "results version mismatch"},
		{Version, 0, "results version mismatch"},
	} {
		w, r, errc := serveInMemory(t)
		hello := Message{Type: MsgHello, Magic: Magic, Version: c.version, Results: c.results,
			Kind: SyntheticSpec{}.Kind(), Spec: json.RawMessage(`{}`), Seed: 1}
		if err := w.Write(hello); err != nil {
			t.Fatal(err)
		}
		reply, err := r.Read()
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		if reply.Type != MsgError || !strings.Contains(reply.Error, c.want) {
			t.Fatalf("v%d results v%d: got %+v, want %q error frame", c.version, c.results, reply, c.want)
		}
		if err := <-errc; err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("v%d results v%d: Serve returned %v, want %q error", c.version, c.results, err, c.want)
		}
	}
}

func TestServeRejectsBadMagicAndUnknownKind(t *testing.T) {
	w, r, errc := serveInMemory(t)
	if err := w.Write(Message{Type: MsgHello, Magic: "nope", Version: Version}); err != nil {
		t.Fatal(err)
	}
	reply, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgError || !strings.Contains(reply.Error, "bad magic") {
		t.Fatalf("got %+v, want bad-magic error frame", reply)
	}
	if err := <-errc; err == nil {
		t.Fatal("Serve accepted a bad magic")
	}

	w, r, errc = serveInMemory(t)
	hello := Message{Type: MsgHello, Magic: Magic, Version: Version, Results: harness.ResultsVersion,
		Kind: "no-such-kind", Spec: json.RawMessage(`{}`), Seed: 1}
	if err := w.Write(hello); err != nil {
		t.Fatal(err)
	}
	reply, err = r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgError || !strings.Contains(reply.Error, "unknown spec kind") {
		t.Fatalf("got %+v, want unknown-kind error frame", reply)
	}
	if err := <-errc; err == nil {
		t.Fatal("Serve accepted an unknown kind")
	}
}

// TestServeSession drives a whole session in-memory: handshake, one job,
// clean bye.
func TestServeSession(t *testing.T) {
	w, r, errc := serveInMemory(t)
	spec, _ := json.Marshal(SyntheticSpec{JobCount: 3, CostMS: 1})
	if err := w.Write(Message{Type: MsgHello, Magic: Magic, Version: Version, Results: harness.ResultsVersion,
		Kind: SyntheticSpec{}.Kind(), Spec: spec, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	ready, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if ready.Type != MsgReady || ready.Jobs != 3 {
		t.Fatalf("ready = %+v, want 3 jobs", ready)
	}
	if err := w.Write(Message{Type: MsgJob, Key: "synthetic/0001"}); err != nil {
		t.Fatal(err)
	}
	res, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if res.Type != MsgResult || res.Key != "synthetic/0001" || res.Error != "" {
		t.Fatalf("result = %+v", res)
	}
	var sr SyntheticResult
	if err := json.Unmarshal(res.Result, &sr); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if sr.Index != 1 {
		t.Fatalf("result index = %d, want 1", sr.Index)
	}
	// Unknown keys come back as job errors, not session errors.
	if err := w.Write(Message{Type: MsgJob, Key: "synthetic/9999"}); err != nil {
		t.Fatal(err)
	}
	res, err = r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if res.Type != MsgResult || !strings.Contains(res.Error, "unknown job key") {
		t.Fatalf("unknown key result = %+v", res)
	}
	if err := w.Write(Message{Type: MsgBye}); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}
