package dist

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"ptguard/internal/harness"
)

// Serve runs one worker session over a byte stream pair: handshake,
// expand the campaign, then execute dispatched jobs until the
// coordinator says bye or the stream closes (a dead coordinator closes
// our stdin, which lands here as io.EOF — the worker must die with it,
// never linger as an orphan).
//
// Serve is the whole body of `ptguard worker`: stdio mode passes
// os.Stdin/os.Stdout, TCP mode passes the accepted connection.
func Serve(r io.Reader, w io.Writer) error {
	in := newFrameReader(r)
	out := newFrameWriter(w)

	hello, err := in.Read()
	if err != nil {
		return fmt.Errorf("dist: worker handshake read: %w", err)
	}
	if err := checkHello(hello); err != nil {
		// Best-effort error frame so the coordinator logs the cause
		// rather than a bare disconnect.
		out.Write(Message{Type: MsgError, Error: err.Error()})
		return err
	}
	js, err := harness.Expand(hello.Kind, hello.Spec, hello.Seed)
	if err != nil {
		out.Write(Message{Type: MsgError, Error: err.Error()})
		return err
	}
	if err := out.Write(Message{Type: MsgReady, Magic: Magic, Version: Version, Jobs: len(js.Keys)}); err != nil {
		return fmt.Errorf("dist: worker handshake write: %w", err)
	}

	heartbeat := time.Duration(hello.HeartbeatMS) * time.Millisecond
	for {
		msg, err := in.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dist: worker read: %w", err)
		}
		switch msg.Type {
		case MsgBye:
			return nil
		case MsgJob:
			res := runJob(js, msg.Key, out, heartbeat)
			if err := out.Write(res); err != nil {
				return fmt.Errorf("dist: worker result write: %w", err)
			}
		default:
			return fmt.Errorf("dist: worker got unexpected %q message", msg.Type)
		}
	}
}

func checkHello(m Message) error {
	if m.Type != MsgHello {
		return fmt.Errorf("dist: expected hello, got %q", m.Type)
	}
	if m.Magic != Magic {
		return fmt.Errorf("dist: bad magic %q (want %q)", m.Magic, Magic)
	}
	if m.Version != Version {
		return fmt.Errorf("dist: protocol version mismatch: coordinator v%d, worker v%d", m.Version, Version)
	}
	return nil
}

// runJob executes one dispatched job, streaming heartbeats while it
// runs. A panic inside the job becomes a job error on the result frame
// (mirroring the local pool's recover), so a poisoned job burns harness
// retries instead of killing the worker.
func runJob(js *harness.JobSet, key string, out *frameWriter, heartbeat time.Duration) Message {
	stop := make(chan struct{})
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		if heartbeat <= 0 {
			return
		}
		tick := time.NewTicker(heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				// A failed heartbeat write means the coordinator is
				// gone; the main loop will see EOF soon enough.
				out.Write(Message{Type: MsgHeartbeat, Key: key})
			}
		}
	}()

	start := time.Now()
	raw, err := func() (raw []byte, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("dist: job %q panicked: %v\n%s", key, r, debug.Stack())
			}
		}()
		return js.Run(context.Background(), key)
	}()
	close(stop)
	<-beatDone

	res := Message{Type: MsgResult, Key: key, Result: raw, ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond)}
	if err != nil {
		res.Result, res.Error = nil, err.Error()
	}
	return res
}
