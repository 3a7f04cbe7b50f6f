package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ptguard/internal/chaos"
	"ptguard/internal/harness"
)

// Campaign names the work a coordinator shards: a registered spec kind,
// the spec value (marshalled to JSON for the wire), and the campaign
// seed. Identical (Kind, Spec, Seed) expand to identical job sets on
// every worker.
type Campaign struct {
	Kind string
	Spec any
	Seed uint64
}

// Options configures a coordinator.
type Options struct {
	// Workers is the number of worker subprocesses to spawn (proc mode).
	// Ignored when Connect is non-empty. Default 2.
	Workers int
	// Connect lists remote `ptguard worker -listen` endpoints
	// (host:port); non-empty selects TCP mode with one session per
	// endpoint.
	Connect []string
	// WorkerCommand is the worker argv for proc mode; empty re-executes
	// the running binary as `<self> worker`. Tests re-exec the test
	// binary with an env hook instead.
	WorkerCommand []string
	// WorkerEnv appends to the spawned workers' environment.
	WorkerEnv []string
	// Heartbeat is the cadence workers prove liveness at while running a
	// job; default 200ms.
	Heartbeat time.Duration
	// HeartbeatGrace is how long the coordinator tolerates silence from
	// a busy worker before declaring it dead and requeueing the job;
	// default 10s. Must comfortably exceed Heartbeat.
	HeartbeatGrace time.Duration
	// MaxRequeues bounds how many times one job survives worker crashes
	// before the loss is surfaced to the harness as a job failure;
	// default 3. Crash requeues below this cap are absorbed here and do
	// NOT burn harness retries — a killed worker is an infrastructure
	// fault, not evidence against the job.
	MaxRequeues int
	// Chaos, when set, arms the worker.kill fault point: the schedule
	// kills a leased worker right after a job is dispatched to it.
	Chaos *chaos.Injector
	// Stderr receives spawned workers' stderr; default os.Stderr.
	Stderr io.Writer
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 200 * time.Millisecond
	}
	if o.HeartbeatGrace <= 0 {
		o.HeartbeatGrace = 10 * time.Second
	}
	if o.MaxRequeues <= 0 {
		o.MaxRequeues = 3
	}
	if o.Stderr == nil {
		o.Stderr = os.Stderr
	}
	return o
}

// Coordinator owns a pool of worker sessions and implements
// harness.Executor over them: each Execute leases one session, ships the
// job key, and waits for the result under a heartbeat deadline. Worker
// death at any point — crash, injected kill, heartbeat silence —
// respawns the session and requeues the job transparently, so the
// harness above sees remote execution with exactly the local pool's
// semantics.
type Coordinator struct {
	campaign  Campaign
	specJSON  json.RawMessage
	opts      Options
	tcp       bool
	addrs     []string
	handshake time.Duration

	pool chan *session

	mu       sync.Mutex
	sessions map[int]*session
	nextID   int
	closed   bool

	queueDepth        atomic.Int64
	completed         atomic.Int64
	requeues          atomic.Int64
	heartbeatTimeouts atomic.Int64
	spawns            atomic.Int64
}

// session is one live worker: a subprocess (proc mode) or a TCP
// connection (tcp mode). A session is owned by exactly one Execute call
// between lease and release, so message routing needs no correlation
// IDs.
type session struct {
	id      int
	addr    string // "" for proc mode, endpoint for tcp
	cmd     *exec.Cmd
	conn    net.Conn
	stdin   io.Closer
	w       *frameWriter
	msgs    chan Message
	started time.Time
	jobs    atomic.Int64
	dead    atomic.Bool
}

// Start builds the worker pool and handshakes every session. The
// returned coordinator is ready to be installed as harness
// Options.Executor; call Close after the campaign.
func Start(c Campaign, opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	specJSON, err := json.Marshal(c.Spec)
	if err != nil {
		return nil, fmt.Errorf("dist: marshal %s spec: %w", c.Kind, err)
	}
	co := &Coordinator{
		campaign:  c,
		specJSON:  specJSON,
		opts:      opts,
		tcp:       len(opts.Connect) > 0,
		addrs:     opts.Connect,
		handshake: 30 * time.Second,
		sessions:  make(map[int]*session),
	}
	width := opts.Workers
	if co.tcp {
		width = len(opts.Connect)
	}
	co.pool = make(chan *session, width)
	for i := 0; i < width; i++ {
		addr := ""
		if co.tcp {
			addr = co.addrs[i]
		}
		s, err := co.spawn(addr)
		if err != nil {
			co.Close()
			return nil, err
		}
		co.pool <- s
	}
	return co, nil
}

// Width is the number of worker sessions; CLIs size the harness worker
// pool to it so every session stays busy without idle queueing.
func (c *Coordinator) Width() int {
	return cap(c.pool)
}

// Backend names the transport for status display.
func (c *Coordinator) Backend() string {
	if c.tcp {
		return "tcp"
	}
	return "proc"
}

// workerArgv resolves the worker command for proc mode.
func (c *Coordinator) workerArgv() ([]string, error) {
	if len(c.opts.WorkerCommand) > 0 {
		return c.opts.WorkerCommand, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("dist: locate worker binary: %w", err)
	}
	return []string{self, "worker"}, nil
}

// spawn starts one worker session (subprocess or TCP dial) and runs the
// handshake.
func (c *Coordinator) spawn(addr string) (*session, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: coordinator closed")
	}
	c.nextID++
	id := c.nextID
	c.mu.Unlock()

	s := &session{id: id, addr: addr, started: time.Now(), msgs: make(chan Message, 8)}
	var r io.Reader
	if addr != "" {
		conn, err := net.DialTimeout("tcp", addr, c.handshake)
		if err != nil {
			return nil, fmt.Errorf("dist: connect worker %s: %w", addr, err)
		}
		s.conn = conn
		s.w = newFrameWriter(conn)
		s.stdin = conn
		r = conn
	} else {
		argv, err := c.workerArgv()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Env = append(os.Environ(), c.opts.WorkerEnv...)
		cmd.Stderr = c.opts.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, fmt.Errorf("dist: worker stdin: %w", err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, fmt.Errorf("dist: worker stdout: %w", err)
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("dist: start worker: %w", err)
		}
		s.cmd = cmd
		s.w = newFrameWriter(stdin)
		s.stdin = stdin
		r = stdout
	}
	c.spawns.Add(1)

	// Route every inbound frame to the session channel; channel close
	// signals worker death to whoever holds the lease.
	go func() {
		in := newFrameReader(r)
		for {
			m, err := in.Read()
			if err != nil {
				close(s.msgs)
				if s.cmd != nil {
					s.cmd.Wait()
				}
				return
			}
			s.msgs <- m
		}
	}()

	hello := Message{
		Type: MsgHello, Magic: Magic, Version: Version, Results: harness.ResultsVersion,
		Kind: c.campaign.Kind, Spec: c.specJSON, Seed: c.campaign.Seed,
		HeartbeatMS: c.opts.Heartbeat.Milliseconds(),
	}
	if err := s.w.Write(hello); err != nil {
		s.kill()
		return nil, fmt.Errorf("dist: worker %d hello: %w", id, err)
	}
	select {
	case m, ok := <-s.msgs:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("dist: worker %d died during handshake", id)
		}
		if m.Type == MsgError {
			s.kill()
			return nil, fmt.Errorf("dist: worker %d rejected campaign: %s", id, m.Error)
		}
		if m.Type != MsgReady {
			s.kill()
			return nil, fmt.Errorf("dist: worker %d sent %q before ready", id, m.Type)
		}
	case <-time.After(c.handshake):
		s.kill()
		return nil, fmt.Errorf("dist: worker %d handshake timed out after %s", id, c.handshake)
	}

	c.mu.Lock()
	c.sessions[id] = s
	c.mu.Unlock()
	return s, nil
}

// kill tears a session down hard (SIGKILL / connection close).
func (s *session) kill() {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	if s.stdin != nil {
		s.stdin.Close()
	}
	if s.conn != nil {
		s.conn.Close()
	}
	if s.cmd != nil && s.cmd.Process != nil {
		s.cmd.Process.Kill()
	}
}

// drop unregisters a dead session.
func (c *Coordinator) drop(s *session) {
	s.kill()
	c.mu.Lock()
	delete(c.sessions, s.id)
	c.mu.Unlock()
}

// Execute implements harness.Executor: lease a worker, dispatch the job
// key, wait for its result under the heartbeat deadline. Worker loss is
// absorbed by respawn-and-requeue up to MaxRequeues; only then does the
// loss surface as an error (burning a harness retry, exactly like a
// local failure would).
func (c *Coordinator) Execute(ctx context.Context, key string) (json.RawMessage, error) {
	c.queueDepth.Add(1)
	var s *session
	select {
	case s = <-c.pool:
		c.queueDepth.Add(-1)
	case <-ctx.Done():
		c.queueDepth.Add(-1)
		return nil, ctx.Err()
	}

	requeues := 0
	for {
		if err := s.w.Write(Message{Type: MsgJob, Key: key}); err != nil {
			var rerr error
			s, rerr = c.requeue(s, key, &requeues)
			if rerr != nil {
				return nil, rerr
			}
			continue
		}
		// Injected fault: kill the leased worker right after dispatch,
		// forcing the crash-requeue path mid-flight.
		if c.opts.Chaos.Fire(chaos.WorkerKill) {
			fmt.Fprintf(c.opts.Stderr, "chaos: injected worker kill after dispatching %q to worker %d\n", key, s.id)
			s.kill()
		}

		timer := time.NewTimer(c.opts.HeartbeatGrace)
	wait:
		for {
			select {
			case <-ctx.Done():
				// The attempt was abandoned (job timeout or campaign
				// cancel). The worker may still be chewing on the job,
				// so retire it and restock the pool asynchronously.
				timer.Stop()
				c.drop(s)
				go c.restock(s.addr)
				return nil, ctx.Err()
			case m, ok := <-s.msgs:
				if !ok {
					timer.Stop()
					var rerr error
					s, rerr = c.requeue(s, key, &requeues)
					if rerr != nil {
						return nil, rerr
					}
					break wait
				}
				switch m.Type {
				case MsgHeartbeat:
					if !timer.Stop() {
						<-timer.C
					}
					timer.Reset(c.opts.HeartbeatGrace)
				case MsgResult:
					timer.Stop()
					s.jobs.Add(1)
					c.completed.Add(1)
					c.pool <- s
					if m.Error != "" {
						return nil, fmt.Errorf("%s", m.Error)
					}
					return m.Result, nil
				default:
					// Protocol violation: treat like a crash.
					timer.Stop()
					s.kill()
					var rerr error
					s, rerr = c.requeue(s, key, &requeues)
					if rerr != nil {
						return nil, rerr
					}
					break wait
				}
			case <-timer.C:
				c.heartbeatTimeouts.Add(1)
				fmt.Fprintf(c.opts.Stderr, "dist: worker %d silent for %s running %q; killing and requeueing\n", s.id, c.opts.HeartbeatGrace, key)
				s.kill()
				var rerr error
				s, rerr = c.requeue(s, key, &requeues)
				if rerr != nil {
					return nil, rerr
				}
				break wait
			}
		}
	}
}

// requeue handles a lost worker mid-job: drop the dead session, spawn a
// replacement, and hand it back for redispatch. Past MaxRequeues the
// replacement still goes back to the pool but the job's loss is
// surfaced as an error.
func (c *Coordinator) requeue(dead *session, key string, requeues *int) (*session, error) {
	c.drop(dead)
	fresh, err := c.spawn(dead.addr)
	if err != nil {
		return nil, fmt.Errorf("dist: worker lost running %q and respawn failed: %w", key, err)
	}
	*requeues++
	c.requeues.Add(1)
	if *requeues > c.opts.MaxRequeues {
		c.pool <- fresh
		return nil, fmt.Errorf("dist: job %q lost its worker %d times (MaxRequeues %d)", key, *requeues, c.opts.MaxRequeues)
	}
	return fresh, nil
}

// restock asynchronously replaces a retired session so the pool keeps
// its width; used on the abandon path where no Execute is waiting.
func (c *Coordinator) restock(addr string) {
	for attempt := 0; attempt < 3; attempt++ {
		s, err := c.spawn(addr)
		if err == nil {
			c.pool <- s
			return
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Fprintf(c.opts.Stderr, "dist: failed to restock worker pool; running short\n")
}

// Close shuts every worker down (polite bye, then hard kill) and marks
// the coordinator unusable.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	sessions := make([]*session, 0, len(c.sessions))
	for _, s := range c.sessions {
		sessions = append(sessions, s)
	}
	c.mu.Unlock()
	for _, s := range sessions {
		s.w.Write(Message{Type: MsgBye})
	}
	for _, s := range sessions {
		s.kill()
	}
	c.mu.Lock()
	for id := range c.sessions {
		delete(c.sessions, id)
	}
	c.mu.Unlock()
}

// WorkerStatus is one session's live counters.
type WorkerStatus struct {
	ID         int     `json:"id"`
	Addr       string  `json:"addr,omitempty"`
	Jobs       int64   `json:"jobs"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	UptimeMS   int64   `json:"uptime_ms"`
}

// Status is a point-in-time view of the coordinator, published over the
// -debug-addr expvar endpoint next to the harness LiveStatus.
type Status struct {
	Backend           string         `json:"backend"`
	Width             int            `json:"width"`
	QueueDepth        int64          `json:"queue_depth"`
	Completed         int64          `json:"completed"`
	Requeues          int64          `json:"requeues"`
	HeartbeatTimeouts int64          `json:"heartbeat_timeouts"`
	Spawns            int64          `json:"spawns"`
	Workers           []WorkerStatus `json:"workers"`
}

// Status snapshots the coordinator's counters.
func (c *Coordinator) Status() Status {
	st := Status{
		Backend:           c.Backend(),
		Width:             c.Width(),
		QueueDepth:        c.queueDepth.Load(),
		Completed:         c.completed.Load(),
		Requeues:          c.requeues.Load(),
		HeartbeatTimeouts: c.heartbeatTimeouts.Load(),
		Spawns:            c.spawns.Load(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sessions {
		up := time.Since(s.started)
		ws := WorkerStatus{ID: s.id, Addr: s.addr, Jobs: s.jobs.Load(), UptimeMS: up.Milliseconds()}
		if up > 0 {
			ws.JobsPerSec = float64(ws.Jobs) / up.Seconds()
		}
		st.Workers = append(st.Workers, ws)
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	return st
}
