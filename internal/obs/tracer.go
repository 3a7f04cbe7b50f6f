package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// DefaultTraceCapacity is the ring-buffer size when Options leaves it zero:
// enough for the tail of a multi-hundred-thousand-instruction run without
// unbounded memory growth.
const DefaultTraceCapacity = 1 << 16

// Event is one traced occurrence at a simulated-cycle timestamp.
type Event struct {
	// Cat groups events for the trace viewer ("mmu", "mac", "ctb",
	// "dram", "fault", "recovery").
	Cat string `json:"cat"`
	// Name is the event within the category ("walk", "verify", ...).
	Name string `json:"name"`
	// Cycle is the simulated-cycle timestamp.
	Cycle uint64 `json:"cycle"`
	// Dur is the event's duration in cycles (0 for instants).
	Dur uint64 `json:"dur,omitempty"`
	// Args carries optional event detail (addresses, rows, counts).
	Args map[string]uint64 `json:"args,omitempty"`
}

// Tracer records events into a bounded ring buffer: when full, the oldest
// events are overwritten, so a trace always holds the most recent window.
// All methods are nil-safe.
type Tracer struct {
	buf     []Event
	next    int
	full    bool
	emitted uint64
}

// NewTracer builds a tracer with the given ring capacity (0 or negative
// selects DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit records one event.
func (t *Tracer) Emit(cat, name string, cycle, dur uint64) {
	t.EmitArgs(cat, name, cycle, dur, nil)
}

// EmitArgs records one event with arguments.
func (t *Tracer) EmitArgs(cat, name string, cycle, dur uint64, args map[string]uint64) {
	if t == nil {
		return
	}
	ev := Event{Cat: cat, Name: name, Cycle: cycle, Dur: dur, Args: args}
	t.emitted++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	t.full = true
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted - uint64(len(t.buf))
}

// Events returns the buffered events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
		return out
	}
	return append(out, t.buf...)
}

// Reset drops every buffered event and zeroes the emission counters.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.buf = t.buf[:0]
	t.next = 0
	t.full = false
	t.emitted = 0
}

// WriteChromeTrace exports the buffered events as a Chrome trace_event
// JSON document viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. One simulated cycle maps to one microsecond of trace
// time.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, []TraceTrack{{Name: "sim", Events: t.Events()}})
}

// TraceTrack is one named event stream in a merged Chrome trace; each
// track renders as its own thread row in the viewer.
type TraceTrack struct {
	Name   string
	Events []Event
}

// chromeEvent is the trace_event wire format: complete events ("ph": "X")
// with ts/dur in microseconds, plus thread_name metadata ("ph": "M").
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports multiple tracks as one Chrome trace_event JSON
// document; track i becomes thread i, labelled by a thread_name metadata
// event.
func WriteChromeTrace(w io.Writer, tracks []TraceTrack) error {
	doc := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for tid, track := range tracks {
		name := track.Name
		if name == "" {
			name = fmt.Sprintf("track-%d", tid)
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: tid,
			Args: map[string]any{"name": name},
		})
		for _, ev := range track.Events {
			ce := chromeEvent{
				Name: ev.Name, Cat: ev.Cat, Ph: "X",
				TS: ev.Cycle, Dur: ev.Dur, PID: 0, TID: tid,
			}
			if len(ev.Args) > 0 {
				ce.Args = make(map[string]any, len(ev.Args))
				for k, v := range ev.Args {
					ce.Args[k] = v
				}
			}
			doc.TraceEvents = append(doc.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
