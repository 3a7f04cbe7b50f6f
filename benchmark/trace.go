package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one job
// share its job index; Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans and counts in memory until the run
// ends. Its methods are safe for concurrent use, and no-ops on a nil
// tracer, so untraced code paths call them unconditionally.
type tracer struct {
	dir   string
	start time.Time
	mu    sync.Mutex
	spans []span
	// sums adds up counts from the jobs' public results and observer
	// registries, over the first digestJobs jobs.
	sums map[string]float64
}

func newTracer(dir string) *tracer {
	return &tracer{dir: dir, start: time.Now(), sums: map[string]float64{}}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sums[name] += v
}

// write saves the spans as spans.json in the trace directory.
func (t *tracer) write() error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(t.dir, "spans.json"), raw, 0o644)
}

// spanTotals sums the duration and the self time of the spans of each
// name. A span's self time is its duration minus the part of it that its
// child spans cover.
func spanTotals(spans []span) (dur, self map[string]int64) {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	dur, self = map[string]int64{}, map[string]int64{}
	for i, s := range spans {
		dur[s.Name] += s.End - s.Start
		self[s.Name] += s.End - s.Start - covered(s, kids[i])
	}
	return dur, self
}

// covered is the length of the union of the kids' intervals within s.
func covered(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	reached := s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reached), min(k.End, s.End)
		if hi > lo {
			total += hi - lo
			reached = hi
		}
	}
	return total
}

// busyLayers are the buckets CPU samples fold into: the internal packages
// the workloads run, QARMA split into its scalar and bit-sliced kernels,
// the Go allocator and garbage collector, and everything else.
var busyLayers = []string{
	"qarma.scalar", "qarma.sliced", "mac", "core", "pte", "attack", "ostable",
	"cache", "tlb", "cpu", "workload", "stats", "dram", "memctrl", "sim",
	"harness", "dist", "obs", "runtime.malloc", "runtime.gc", "other",
}

// foldProfiles folds every CPU profile in dir (the benchmark process and,
// on fig7-proc, its workers) into busy shares per layer.
func foldProfiles(dir string) (map[string]float64, error) {
	profs, err := filepath.Glob(filepath.Join(dir, "*.pprof"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces", "-lines", "-unit=ms"}, profs...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return foldTraces(string(out)), nil
}

// foldTraces folds the sampled stacks that `go tool pprof -traces -lines
// -unit=ms` prints into busyLayers, and returns each layer's share of all
// samples in percent. A stack goes to the layer of the frame nearest its
// leaf that is either in an internal package or in the Go allocator or
// garbage collector, so library code counts toward the package that called
// it. Every layer is present; with no samples every share is 0.
func foldTraces(text string) map[string]float64 {
	ms := map[string]float64{}
	var (
		total, value float64
		layer        string
		inStack      bool
	)
	flush := func() {
		if inStack {
			if layer == "" {
				layer = "other"
			}
			ms[layer] += value
			total += value
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inStack, value, layer = false, 0, ""
			continue
		}
		frame := strings.TrimSpace(line)
		if frame == "" {
			continue
		}
		if !inStack {
			// The first line of a stack holds its sample value, then the
			// leaf frame.
			head, rest, ok := strings.Cut(frame, " ")
			v, err := strconv.ParseFloat(strings.TrimSuffix(head, "ms"), 64)
			if !ok || err != nil {
				continue // report header
			}
			inStack, value, frame = true, v, strings.TrimSpace(rest)
		}
		if layer == "" {
			layer = frameLayer(frame)
		}
	}
	flush()
	busy := make(map[string]float64, len(busyLayers))
	for _, l := range busyLayers {
		busy[l] = 0
		if total > 0 {
			busy[l] = 100 * ms[l] / total
		}
	}
	return busy
}

// frameLayer maps one stack frame, "function file:line" with an optional
// "(inline)", to a layer, or to "" when the frame does not decide one.
func frameLayer(frame string) string {
	frame = strings.TrimSuffix(frame, " (inline)")
	fn, file := frame, ""
	// The function name may hold spaces (generic instantiations); the
	// source position is the last field.
	if i := strings.LastIndexByte(frame, ' '); i >= 0 && sourcePos.MatchString(frame[i+1:]) {
		fn, file = frame[:i], frame[i+1:strings.LastIndexByte(frame, ':')]
	}
	base := path.Base(file)
	const internal = "ptguard/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		pkg = pkg[:strings.IndexAny(pkg+".", "./")]
		if pkg == "qarma" {
			if strings.HasPrefix(base, "sliced") {
				return "qarma.sliced"
			}
			return "qarma.scalar"
		}
		for _, l := range busyLayers {
			if l == pkg {
				return l
			}
		}
	case strings.HasPrefix(fn, "runtime."):
		switch {
		case strings.HasPrefix(base, "mgc"), base == "mbarrier.go", base == "mwbbuf.go":
			return "runtime.gc"
		case strings.HasPrefix(base, "malloc"), strings.HasPrefix(base, "mcache"),
			strings.HasPrefix(base, "mcentral"), strings.HasPrefix(base, "mheap"),
			strings.HasPrefix(base, "mbitmap"), strings.HasPrefix(base, "mpage"),
			base == "msize.go", base == "mfixalloc.go":
			return "runtime.malloc"
		}
	}
	return ""
}

var sourcePos = regexp.MustCompile(`\.(go|s):[0-9]+$`)

// layerMetrics fills in the per-layer metrics of a traced phase ph, given
// the untraced phase plain that ran the same jobs first.
func layerMetrics(r *report, tr *tracer, busy map[string]float64, plain, ph phase) {
	for _, l := range busyLayers {
		r.set(l+".busy_pct", "%", busy[l])
	}

	c := tr.sums
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perKInstr := func(name string) float64 { return 1000 * div(c[name], c["cpu.instructions"]) }
	macs := c["guard.read_mac_computes"] + c["guard.write_mac_computes"]
	r.set("core.read_macs_per_kinstr", "1/kinstr", perKInstr("guard.read_mac_computes"))
	r.set("core.write_macs_per_kinstr", "1/kinstr", perKInstr("guard.write_mac_computes"))
	r.set("core.chunk_encrypts_per_mac", "ratio", div(c["guard.chunk_encrypts"], macs))
	r.set("core.zero_fastpath_ratio", "ratio", div(c["guard.zero_fastpath_hits"], c["guard.zero_fastpath_hits"]+macs))
	r.set("core.identifier_skip_ratio", "ratio", div(c["guard.identifier_skips"], c["guard.reads"]))
	r.set("cache.l1d.hit_rate", "ratio", div(c["cache.l1.hits"], c["cache.l1.accesses"]))
	r.set("cache.l2.hit_rate", "ratio", div(c["cache.l2.hits"], c["cache.l2.accesses"]))
	r.set("cache.llc_mpki", "1/kinstr", perKInstr("cache.l3.misses"))
	r.set("tlb.miss_rate", "ratio", div(c["tlb.misses"], c["tlb.hits"]+c["tlb.misses"]))
	r.set("sim.page_walks_per_kinstr", "1/kinstr", perKInstr("sim.page_walks"))
	r.set("walker.mem_accesses_per_walk", "ratio", div(c["walker.mem_accesses"], c["walker.walks"]))
	r.set("dram.row_hit_rate", "ratio", div(c["dram.row_hits"], c["dram.row_hits"]+c["dram.row_activations"]))
	r.set("memctrl.accesses_per_kinstr", "1/kinstr", 1000*div(c["memctrl.reads"]+c["memctrl.writes"], c["cpu.instructions"]))
	r.set("memctrl.read_mac_cycles_per_kinstr", "1/kinstr", perKInstr("memctrl.read_mac_cycles"))
	r.set("sim.slowdown_pct", "%", div(c["sim.slowdown_pct"], c["sim.jobs"]))
	r.set("attack.guesses_per_trial", "ratio", div(c["attack.guesses"], c["attack.erroneous"]))
	r.set("attack.guesses_per_correction", "ratio", div(c["attack.guesses"], c["attack.corrected"]))
	r.set("attack.detected_pct", "%", 100*div(c["attack.detected"], c["attack.erroneous"]))
	r.set("attack.corrected_pct", "%", 100*div(c["attack.corrected"], c["attack.erroneous"]))
	r.set("harness.journal_bytes_per_job", "B", div(c["harness.journal_bytes"], c["harness.executed"]))
	r.set("harness.retries", "count", c["harness.retries"])
	r.set("dist.requeues", "count", c["dist.requeues"])
	r.set("dist.heartbeat_timeouts", "count", c["dist.heartbeat_timeouts"])
	r.set("dist.jobs_per_worker_spread", "ratio", c["dist.jobs_per_worker_spread"])

	jobs := float64(len(ph.samples))
	dur, self := spanTotals(tr.spans)
	msPerJob := func(ns int64) float64 { return div(float64(ns)/1e6, jobs) }
	r.set("sim.new_system_ms", "ms", msPerJob(dur["sim.new_system"]))
	r.set("sim.warmup_ms", "ms", msPerJob(dur["sim.warmup"]))
	r.set("sim.measure_ms.baseline", "ms", msPerJob(dur["sim.measure.baseline"]))
	r.set("sim.measure_ms.protected", "ms", msPerJob(dur["sim.measure.protected"]))
	r.set("attack.run_correction_ms", "ms", msPerJob(dur["attack.run_correction"]))
	r.set("dist.execute_ms", "ms", msPerJob(dur["dist.execute"]))
	r.set("dist.start_ms", "ms", float64(dur["dist.start"])/1e6)
	r.set("harness.self_ms_per_job", "ms", msPerJob(self["harness.run"]))
	r.set("runtime.gc_cycles_per_job", "count", div(float64(ph.gcs), jobs))
	r.set("runtime.gc_pause_ms_per_job", "ms", msPerJob(ph.pause.Nanoseconds()))

	rate := func(p phase) float64 { return div(float64(len(p.samples)), p.wall.Seconds()) }
	r.set("trace_overhead_pct", "%", 100*(1-div(rate(ph), rate(plain))))
}
