// Package dist shards one harness campaign across processes and
// machines: a coordinator (implementing harness.Executor) dispatches job
// keys to `ptguard worker` subprocesses over stdin/stdout — or to remote
// `ptguard worker -listen` endpoints over TCP — and each worker expands
// the same declarative spec from the same campaign seed, so a job key
// alone identifies the work and the merged report is byte-identical to
// the in-process run at any worker/process count.
//
// The wire format reuses the harness journal's v2 idea: one JSON message
// per line, framed as {"crc":"<crc32-hex>","m":{...}} with the CRC
// computed over the message bytes. A worker killed mid-write leaves a
// torn line the coordinator rejects deterministically (and treats as a
// worker crash, requeueing the job), never a half-parsed message.
package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

const (
	// Magic identifies the protocol in the handshake.
	Magic = "ptguard-dist"
	// Version is the protocol version; coordinator and worker must agree
	// exactly (the handshake rejects a mismatch before any job runs). v2:
	// hello and ready carry harness.ResultsVersion, which must agree too.
	Version = 2
)

// Message types.
const (
	// MsgHello opens a session: coordinator -> worker, carrying the
	// campaign (kind, spec JSON, seed), the results version it expects
	// and the heartbeat cadence.
	MsgHello = "hello"
	// MsgReady acknowledges the hello: worker -> coordinator, carrying
	// the worker's versions and how many jobs the spec expanded into.
	MsgReady = "ready"
	// MsgJob dispatches one job key: coordinator -> worker.
	MsgJob = "job"
	// MsgHeartbeat flows worker -> coordinator while a job runs, proving
	// the worker is alive (silence past the grace window means a dead or
	// wedged worker and the job is requeued).
	MsgHeartbeat = "heartbeat"
	// MsgResult returns a finished job: the job's JSON result, or its
	// error string (a job error, not a worker failure — it burns a
	// harness retry exactly like a local failure).
	MsgResult = "result"
	// MsgError reports a session-level worker failure (bad handshake,
	// unknown kind); the session is dead after it.
	MsgError = "error"
	// MsgBye closes a session cleanly: coordinator -> worker.
	MsgBye = "bye"
)

// Message is one protocol message; which fields are meaningful depends
// on Type.
type Message struct {
	Type string `json:"type"`

	// Handshake (hello/ready).
	Magic       string          `json:"magic,omitempty"`
	Version     int             `json:"version,omitempty"`
	Results     int             `json:"results,omitempty"`
	Kind        string          `json:"kind,omitempty"`
	Spec        json.RawMessage `json:"spec,omitempty"`
	Seed        uint64          `json:"seed,omitempty"`
	HeartbeatMS int64           `json:"heartbeat_ms,omitempty"`
	Jobs        int             `json:"jobs,omitempty"`

	// Job dispatch and completion (job/heartbeat/result).
	Key       string          `json:"key,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms,omitempty"`

	// Error carries a job error (on result) or a session error (on
	// error).
	Error string `json:"error,omitempty"`
}

// frame is the on-wire line: the message bytes plus their CRC32, the
// same shape as the journal's v2 record framing.
type frame struct {
	CRC string          `json:"crc"`
	Msg json.RawMessage `json:"m"`
}

func frameCRC(msg []byte) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(msg))
}

// EncodeFrame serialises one message as a CRC-framed line (including the
// trailing newline).
func EncodeFrame(m Message) ([]byte, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("dist: marshal %s message: %w", m.Type, err)
	}
	line, err := json.Marshal(frame{CRC: frameCRC(raw), Msg: raw})
	if err != nil {
		return nil, fmt.Errorf("dist: frame %s message: %w", m.Type, err)
	}
	return append(line, '\n'), nil
}

// DecodeFrame parses one framed line back into a message, verifying the
// CRC. It never panics on arbitrary input (FuzzDistFrame pins that); any
// defect — bad JSON, missing fields, CRC mismatch, empty type — is an
// error, because on this wire a malformed line means a torn write from a
// dying worker, and the caller must treat the session as lost.
func DecodeFrame(line []byte) (Message, error) {
	var fr frame
	if err := json.Unmarshal(line, &fr); err != nil {
		return Message{}, fmt.Errorf("dist: frame is not valid JSON: %w", err)
	}
	if len(fr.Msg) == 0 {
		return Message{}, fmt.Errorf("dist: frame has no message")
	}
	if want := frameCRC(fr.Msg); fr.CRC != want {
		return Message{}, fmt.Errorf("dist: frame CRC mismatch (stored %s, computed %s)", fr.CRC, want)
	}
	var m Message
	if err := json.Unmarshal(fr.Msg, &m); err != nil {
		return Message{}, fmt.Errorf("dist: framed message is not valid JSON: %w", err)
	}
	if m.Type == "" {
		return Message{}, fmt.Errorf("dist: framed message has no type")
	}
	return m, nil
}

// maxFrame bounds one wire line; a SlowdownResult with embedded obs
// series stays far below this, and an unbounded line would let a corrupt
// peer OOM the reader.
const maxFrame = 64 << 20

// frameReader reads framed messages off a byte stream.
type frameReader struct {
	br *bufio.Reader
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Read returns the next message. io.EOF (possibly wrapping a torn
// trailing line) means the peer is gone.
func (fr *frameReader) Read() (Message, error) {
	var line []byte
	for {
		chunk, err := fr.br.ReadSlice('\n')
		line = append(line, chunk...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(line) > maxFrame {
				return Message{}, fmt.Errorf("dist: frame exceeds %d bytes", maxFrame)
			}
			continue
		}
		if err == io.EOF && len(line) > 0 {
			// Torn trailing line from a dying peer: report EOF, the
			// session is over either way.
			return Message{}, io.EOF
		}
		return Message{}, err
	}
	return DecodeFrame(line[:len(line)-1])
}

// frameWriter serialises messages onto a byte stream; safe for
// concurrent use (heartbeats interleave with results).
type frameWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{w: w}
}

func (fw *frameWriter) Write(m Message) error {
	line, err := EncodeFrame(m)
	if err != nil {
		return err
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	_, err = fw.w.Write(line)
	return err
}
