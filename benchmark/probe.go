package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The benchmark's host is a shared VM whose speed drifts by 10-40% over
// minutes: the same jobs at the same seed take that much longer when
// neighbours load the machine, far beyond any useful regression bound. So
// that runs taken minutes apart compare, the untraced run times a fixed
// reference kernel after every cycle and scales its timings to a reference
// host speed. The kernel runs on as many threads as the benchmark uses, in
// a child process, so the program under test can neither speed it up nor
// slow it down, and its memory stays out of the benchmark's peak RSS.

// probeEnv turns the benchmark binary into the reference-kernel process.
const probeEnv = "PTGUARD_BENCH_PROBE"

// refProbe is the kernel's median duration on the 2-vCPU host the
// benchmark was calibrated on. It only sets the scale: scaled times equal
// raw ones whenever the host runs the kernel at this speed.
const refProbe = 31 * time.Millisecond

// serveProbe is the body of the reference-kernel process: for every byte it
// reads it runs the kernel once on each of procs goroutines and writes the
// wall time in nanoseconds, one line each, until its input closes.
func serveProbe() int {
	r := rand.New(rand.NewSource(1))
	table := make([]uint64, 8<<20) // 64 MiB: larger than the host's caches
	for i := range table {
		table[i] = uint64(i)
	}
	idx := make([]int, 1<<19)
	for i := range idx {
		idx[i] = r.Intn(len(table))
	}
	keys := make([]int, 150_000)
	for i := range keys {
		keys[i] = r.Int()
	}
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadByte(); err != nil {
			return 0
		}
		start := time.Now()
		sums := make([]int, procs)
		var wg sync.WaitGroup
		for g := range sums {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sums[g] = probeKernel(table, idx, keys)
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, v := range sums {
			probeSink += v
		}
		fmt.Println(elapsed.Nanoseconds())
	}
}

// probeSink keeps the kernel's results live.
var probeSink int

// probeKernel does the same memory-bound work on every call: random reads
// over table, map inserts and a sort, the access patterns of the
// simulator's caches, page tables and DRAM model.
func probeKernel(table []uint64, idx, keys []int) int {
	var sum uint64
	for _, j := range idx {
		sum += table[j]
	}
	m := make(map[int]int)
	for i, k := range keys[:100_000] {
		m[k] = i
	}
	xs := append([]int(nil), keys...)
	sort.Ints(xs)
	return int(sum) + len(m) + xs[0]
}

// prober drives a reference-kernel process and keeps its timings.
type prober struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Scanner
	times []float64
}

func startProber() (*prober, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), probeEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start probe process: %w", err)
	}
	return &prober{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// measure runs the kernel once and returns and records its wall time.
func (p *prober) measure() (time.Duration, error) {
	if _, err := p.in.Write([]byte{0}); err != nil {
		return 0, fmt.Errorf("probe process: %w", err)
	}
	if !p.out.Scan() {
		return 0, fmt.Errorf("probe process exited: %v", p.out.Err())
	}
	ns, err := strconv.ParseFloat(p.out.Text(), 64)
	if err != nil {
		return 0, fmt.Errorf("probe process: %w", err)
	}
	p.times = append(p.times, ns)
	return time.Duration(ns), nil
}

// median is the median kernel time measured so far.
func (p *prober) median() time.Duration {
	med, _ := quantile(p.times, 0.5)
	return time.Duration(med)
}

// close ends the probe process and waits for it.
func (p *prober) close() error {
	p.in.Close()
	return p.cmd.Wait()
}
