// Command benchmark is ptguard's benchmark of record. It runs one of four
// paper-figure workloads as a closed loop (one client; the next job starts
// when the previous one ends), checks every job's output, and prints each
// metric with its unit and sample count. The last line of standard output
// is a JSON summary: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a traced rerun of the same jobs.
//
//	sh benchmark/run.sh --workload fig6-ptguard --seed 1 --seconds 15 --trace 0
//
// Without -workload it runs every workload, each in its own process. The
// program under test receives only inputs generated from -seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// procs pins GOMAXPROCS: the benchmark is sized for a 2-core host, and a
// pinned value keeps runs comparable across hosts with more cores.
const procs = 2

func main() {
	if os.Getenv(workerEnv) != "" {
		os.Exit(serveWorker())
	}
	if os.Getenv(probeEnv) != "" {
		os.Exit(serveProbe())
	}
	cfg := config{minJobs: 100, setups: 5}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+"); empty runs all of them")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every job input is derived from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "minimum length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch files and trace output")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplies the size of every job (small values give smoke runs)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	if cfg.scale <= 0 || cfg.seconds < 0 {
		fatalf("-scale must be positive and -seconds non-negative")
	}
	runtime.GOMAXPROCS(procs)

	if cfg.workload == "" {
		os.Exit(runAll())
	}
	rep, err := run(cfg, *trace == 1, os.Stdout)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in a child process of its own, so peak RSS and
// garbage-collector state belong to one workload.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	status := 0
	for _, name := range workloadNames() {
		cmd := exec.Command(self, append(os.Args[1:], "-workload", name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
