package main

import (
	"bytes"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ptguard/internal/dist"
)

const (
	// workerEnv turns the benchmark binary into a fig7-proc worker.
	workerEnv = "PTGUARD_BENCH_WORKER"
	// profileDirEnv names the directory a traced worker writes its CPU
	// profile to.
	profileDirEnv = "PTGUARD_BENCH_PROFILE_DIR"
)

// serveWorker is the body of a fig7-proc worker process: one dist session
// over stdin and stdout. A profiling worker writes its CPU profile on
// SIGUSR1, because the coordinator kills its workers when it closes.
func serveWorker() int {
	if dir := os.Getenv(profileDirEnv); dir != "" {
		stop, err := startProfile(filepath.Join(dir, fmt.Sprintf("worker-%d.pprof", os.Getpid())))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark worker: %v\n", err)
			return 1
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGUSR1)
		go func() {
			<-sig
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark worker: %v\n", err)
			}
		}()
	}
	if err := dist.Serve(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark worker: %v\n", err)
		return 1
	}
	return 0
}

// startProfile profiles this process's CPU. The returned stop function
// writes the profile to path, which appears only once it is complete.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(path+".tmp", path)
	}, nil
}

// flushWorkerProfiles asks every worker process to write its profile into
// dir and waits until all have.
func flushWorkerProfiles(dir string) error {
	pids, err := workers()
	if err != nil {
		return err
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, syscall.SIGUSR1); err != nil {
			return fmt.Errorf("signal worker %d: %w", pid, err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		done, err := filepath.Glob(filepath.Join(dir, "worker-*.pprof"))
		if err != nil {
			return err
		}
		if len(done) >= len(pids) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d worker profiles written", len(done), len(pids))
		}
	}
}

// waitWorkers waits until every worker process has exited.
func waitWorkers(timeout time.Duration) error {
	for deadline := time.Now().Add(timeout); ; time.Sleep(10 * time.Millisecond) {
		pids, err := workers()
		if err != nil || len(pids) == 0 {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker processes %v still running", pids)
		}
	}
}

// workers lists this process's live worker processes from /proc: its
// children started with workerEnv set. An exited worker has no environment
// left to read.
func workers() ([]int, error) {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	self := strconv.Itoa(os.Getpid())
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // exited since the directory was read
		}
		// The command name may hold spaces and parentheses; the fields
		// after its last closing parenthesis are state and parent pid.
		f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(f) < 2 || f[1] != self {
			continue
		}
		env, err := os.ReadFile(filepath.Join("/proc", e.Name(), "environ"))
		// environ is a run of NUL-terminated KEY=VALUE entries.
		if err == nil && bytes.Contains(append([]byte{0}, env...), []byte("\x00"+workerEnv+"=1\x00")) {
			pids = append(pids, pid)
		}
	}
	return pids, nil
}
