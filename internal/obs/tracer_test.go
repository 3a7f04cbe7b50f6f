package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTracerRingWraparound: a full ring overwrites the oldest events and
// Events() returns the surviving window oldest-first.
func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit("cat", fmt.Sprintf("ev%d", i), uint64(i), 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if emitted := uint64(tr.Len()) + tr.Dropped(); emitted != 10 {
		t.Errorf("Len+Dropped = %d, want 10 emitted", emitted)
	}
	if tr.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		want := fmt.Sprintf("ev%d", 6+i)
		if ev.Name != want || ev.Cycle != uint64(6+i) {
			t.Errorf("event[%d] = %+v, want name %s cycle %d", i, ev, want, 6+i)
		}
	}

	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Errorf("after Reset: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	// The ring is reusable after Reset without re-allocating.
	tr.Emit("cat", "again", 1, 2)
	if evs := tr.Events(); len(evs) != 1 || evs[0].Name != "again" {
		t.Errorf("post-reset events = %+v", evs)
	}
}

func TestTracerPartialRingInOrder(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 3; i++ {
		tr.Emit("c", fmt.Sprintf("e%d", i), uint64(i), 0)
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 3 || evs[0].Name != "e0" || evs[2].Name != "e2" {
		t.Errorf("events = %+v", evs)
	}
}

// TestWriteChromeTraceGolden validates the trace_event export against the
// checked-in golden file and re-parses it as the viewer would.
func TestWriteChromeTraceGolden(t *testing.T) {
	tracks := []TraceTrack{
		{Name: "mcf/mac10/ptguard", Events: []Event{
			{Cat: "mmu", Name: "walk", Cycle: 100, Dur: 42},
			{Cat: "mac", Name: "verify", Cycle: 120, Dur: 10,
				Args: map[string]uint64{"addr": 0x1000}},
		}},
		{Events: []Event{ // unnamed track gets a synthetic name
			{Cat: "recovery", Name: "rebuild", Cycle: 7},
		}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tracks); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output diverged from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// Structural validity: what Perfetto/chrome://tracing requires.
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 5 { // 2 thread_name metadata + 3 events
		t.Fatalf("traceEvents = %d entries, want 5", len(doc.TraceEvents))
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "thread_name" || ev.Args["name"] == "" {
				t.Errorf("bad metadata event: %+v", ev)
			}
		case "X":
			complete++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 || complete != 3 {
		t.Errorf("meta=%d complete=%d, want 2 and 3", meta, complete)
	}
}

// TestWriteChromeTraceEmpty: zero tracks must still be a valid document with
// a non-null traceEvents array.
func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if string(doc["traceEvents"]) == "null" {
		t.Error("traceEvents encoded as null")
	}
}
