package chaos

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	for _, p := range Points() {
		if in.Fire(p) {
			t.Errorf("nil injector fired %s", p)
		}
		if err := in.Err(p, "op"); err != nil {
			t.Errorf("nil injector returned error for %s: %v", p, err)
		}
	}
	in.Kill(ProcKill) // must not exit or panic
	if n := in.InjectedTotal(); n != 0 {
		t.Errorf("nil injector counted %d injections", n)
	}
}

func TestParseEmptySpecIsNil(t *testing.T) {
	in, err := Parse("  ", 1)
	if err != nil || in != nil {
		t.Fatalf("Parse(empty) = %v, %v; want nil, nil", in, err)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"no.such.point:after=1",
		"journal.write:after=0",
		"journal.write:after=x",
		"journal.write:times=0",
		"journal.write:p=2",
		"journal.write:wat=1",
		"journal.write:after",
		"journal.write:after=1;journal.write:after=2",
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestAfterTimesSchedule(t *testing.T) {
	in, err := Parse("worker.panic:after=3,times=2", 7)
	if err != nil {
		t.Fatal(err)
	}
	var fires []bool
	for i := 0; i < 6; i++ {
		fires = append(fires, in.Fire(WorkerPanic))
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
	if got := in.Injected()[WorkerPanic]; got != 2 {
		t.Errorf("injected count = %d, want 2", got)
	}
	// An unscheduled point never fires.
	if in.Fire(DiskFull) {
		t.Error("unscheduled point fired")
	}
}

func TestProbScheduleIsDeterministic(t *testing.T) {
	run := func(seed uint64) []bool {
		in, err := Parse("disk.full:p=0.5", seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, in.Fire(DiskFull))
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 64-hit schedules")
	}
	n := 0
	for _, f := range a {
		if f {
			n++
		}
	}
	if n == 0 || n == len(a) {
		t.Errorf("p=0.5 fired %d/%d hits", n, len(a))
	}
}

func TestErrIsTypedAndMatchable(t *testing.T) {
	in, err := Parse("journal.fsync:after=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	ierr := in.Err(JournalFsync, "sync")
	if ierr == nil {
		t.Fatal("scheduled fault did not fire")
	}
	var ce *Error
	if !errors.As(fmt.Errorf("wrapped: %w", ierr), &ce) || ce.Point != JournalFsync {
		t.Errorf("errors.As did not find the injected fault: %v", ce)
	}
	if !errors.Is(ierr, &Error{Point: JournalFsync}) {
		t.Error("errors.Is by point failed")
	}
	if errors.Is(ierr, &Error{Point: DiskFull}) {
		t.Error("errors.Is matched the wrong point")
	}
	if !strings.Contains(ierr.Error(), "journal.fsync") {
		t.Errorf("error text %q lacks the point name", ierr)
	}
	if errors.As(fmt.Errorf("organic failure"), &ce) {
		t.Error("errors.As matched an organic error")
	}
}

func TestKillUsesExitOverride(t *testing.T) {
	in := New(1)
	code := -1
	in.SetExit(func(c int) { code = c })
	in.Kill(ProcKill)
	if code != KillExitCode {
		t.Fatalf("exit code = %d, want %d", code, KillExitCode)
	}
}

func TestPointsCatalogCoversSpecSyntax(t *testing.T) {
	// Every cataloged point must round-trip through Parse.
	for _, p := range Points() {
		if _, err := Parse(string(p)+":after=1", 1); err != nil {
			t.Errorf("catalog point %s rejected by Parse: %v", p, err)
		}
	}
}
