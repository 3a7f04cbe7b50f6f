// Package chaos is the fault-injection framework behind the durability
// tests of internal/harness: a catalog of named fault points (journal
// write/fsync failure, short write followed by a crash, disk-full, worker
// panic, hung job, mid-campaign process kill) and a deterministic,
// seed-derived schedule that decides which hit of each point fires.
//
// The subsystem under test calls Fire/Err/Kill at its fault points; with a
// nil *Injector every call is a no-op, so production paths carry the hooks
// unconditionally and pay only an inlined nil check. Schedules are pure
// functions of (spec, seed), so a chaos run is exactly reproducible: the
// same spec and seed fault the same operations in the same order.
package chaos

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ptguard/internal/stats"
)

// Point names one injectable fault site.
type Point string

// The fault-point catalog. Every point is wired through internal/harness;
// `ptguard soak` cycles a kill/corrupt/resume campaign over all of them.
const (
	// JournalWrite fails the journal record write (nothing is written).
	JournalWrite Point = "journal.write"
	// JournalFsync writes the record but fails the following fsync.
	JournalFsync Point = "journal.fsync"
	// JournalShortWrite writes a prefix of the record and then crashes the
	// process: the classic torn-write power-cut.
	JournalShortWrite Point = "journal.short-write"
	// DiskFull fails the journal write with an ENOSPC-shaped error.
	DiskFull Point = "disk.full"
	// WorkerPanic panics inside a job attempt (exercises panic recovery
	// and retry).
	WorkerPanic Point = "worker.panic"
	// JobHang blocks a job attempt until its context is cancelled
	// (exercises the per-job timeout and abandonment).
	JobHang Point = "job.hang"
	// ProcKill terminates the process immediately after a checkpoint
	// append (exercises kill-and-resume).
	ProcKill Point = "proc.kill"
	// WorkerKill kills a distributed worker process right after a job was
	// dispatched to it (exercises the coordinator's heartbeat-timeout /
	// crash-requeue path; a no-op on the in-process backend).
	WorkerKill Point = "worker.kill"
)

// KillExitCode is the exit status used by injected process kills, chosen to
// mimic SIGKILL's 128+9 shell convention so supervisors treat an injected
// kill exactly like a real one.
const KillExitCode = 137

// Points returns the full fault-point catalog, sorted.
func Points() []Point {
	pts := []Point{
		DiskFull, JobHang, JournalFsync, JournalShortWrite, JournalWrite,
		ProcKill, WorkerKill, WorkerPanic,
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

func knownPoint(p Point) bool {
	for _, q := range Points() {
		if q == p {
			return true
		}
	}
	return false
}

// Error is the error returned by an injected fault, distinguishable from
// organic failures via errors.As / Is.
type Error struct {
	Point Point
	Op    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("chaos: injected %s fault at %s", e.Point, e.Op)
}

// Is reports equality by fault point, so
// errors.Is(err, &chaos.Error{Point: p}) matches any op at p.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Point == e.Point && (t.Op == "" || t.Op == e.Op)
}

// rule schedules one point: fire on hits [After, After+Times), or (with
// Prob > 0) fire each hit independently with probability Prob drawn from
// the point's seed-derived RNG.
type rule struct {
	after int
	times int
	prob  float64
}

// Injector decides, per fault point, whether the current hit fires. Safe
// for concurrent use; a nil Injector never fires.
type Injector struct {
	mu    sync.Mutex
	seed  uint64
	rules map[Point]rule
	hits  map[Point]int
	fired map[Point]int
	rngs  map[Point]*stats.RNG

	// exit terminates the process on Kill; tests override it via SetExit.
	exit func(code int)
}

// New builds an injector with no rules (nothing fires until rules are
// added via Parse-style specs; see Parse).
func New(seed uint64) *Injector {
	return &Injector{
		seed:  seed,
		rules: make(map[Point]rule),
		hits:  make(map[Point]int),
		fired: make(map[Point]int),
		rngs:  make(map[Point]*stats.RNG),
		exit:  os.Exit,
	}
}

// Parse builds an injector from a schedule spec:
//
//	point:after=N[,times=M] [; point2:p=F] ...
//
// "after=N" fires the point on its N-th hit (1-based), "times=M" keeps it
// firing for M consecutive hits (default 1), and "p=F" instead fires each
// hit independently with probability F from a deterministic seed-derived
// stream. An empty spec returns a nil injector (all hooks no-ops).
func Parse(spec string, seed uint64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := New(seed)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, params, _ := strings.Cut(clause, ":")
		p := Point(strings.TrimSpace(name))
		if !knownPoint(p) {
			return nil, fmt.Errorf("chaos: unknown fault point %q (catalog: %v)", name, Points())
		}
		r := rule{after: 1, times: 1}
		if params != "" {
			for _, kv := range strings.Split(params, ",") {
				k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("chaos: %s: malformed parameter %q (want k=v)", p, kv)
				}
				switch k {
				case "after":
					n, err := strconv.Atoi(v)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("chaos: %s: after=%q (want integer >= 1)", p, v)
					}
					r.after = n
				case "times":
					n, err := strconv.Atoi(v)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("chaos: %s: times=%q (want integer >= 1)", p, v)
					}
					r.times = n
				case "p":
					f, err := strconv.ParseFloat(v, 64)
					if err != nil || f < 0 || f > 1 {
						return nil, fmt.Errorf("chaos: %s: p=%q (want probability in [0,1])", p, v)
					}
					r.prob = f
				default:
					return nil, fmt.Errorf("chaos: %s: unknown parameter %q", p, k)
				}
			}
		}
		if _, dup := in.rules[p]; dup {
			return nil, fmt.Errorf("chaos: duplicate rule for %s", p)
		}
		in.rules[p] = r
	}
	return in, nil
}

// SetExit overrides the process-termination function used by Kill and the
// short-write crash (tests substitute a panic or a recording stub).
func (in *Injector) SetExit(fn func(code int)) {
	if in == nil || fn == nil {
		return
	}
	in.mu.Lock()
	in.exit = fn
	in.mu.Unlock()
}

// Fire counts one hit of point p and reports whether the schedule fires a
// fault on this hit. Always false on a nil Injector or an unscheduled
// point.
func (in *Injector) Fire(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r, ok := in.rules[p]
	if !ok {
		return false
	}
	in.hits[p]++
	var fire bool
	if r.prob > 0 {
		rng, ok := in.rngs[p]
		if !ok {
			rng = stats.NewRNG(stats.DeriveSeed(in.seed, "chaos/"+string(p)))
			in.rngs[p] = rng
		}
		fire = rng.Float64() < r.prob
	} else {
		h := in.hits[p]
		fire = h >= r.after && h < r.after+r.times
	}
	if fire {
		in.fired[p]++
	}
	return fire
}

// Err fires point p and, when the schedule says so, returns the injected
// *Error tagged with op; otherwise nil.
func (in *Injector) Err(p Point, op string) error {
	if in.Fire(p) {
		return &Error{Point: p, Op: op}
	}
	return nil
}

// Kill terminates the process with KillExitCode (or the SetExit override).
// It is called by the harness when ProcKill or the short-write crash
// fires; callers must treat it as not returning.
func (in *Injector) Kill(p Point) {
	if in == nil {
		return
	}
	in.mu.Lock()
	exit := in.exit
	in.mu.Unlock()
	fmt.Fprintf(os.Stderr, "chaos: injected process kill at %s\n", p)
	exit(KillExitCode)
}

// Injected returns how many times each point has fired so far.
func (in *Injector) Injected() map[Point]int {
	out := make(map[Point]int)
	if in == nil {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for p, n := range in.fired {
		out[p] = n
	}
	return out
}

// InjectedTotal returns the total number of fired faults.
func (in *Injector) InjectedTotal() int {
	n := 0
	for _, c := range in.Injected() {
		n += c
	}
	return n
}
