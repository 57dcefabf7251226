package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"silcfm/internal/mem"
	"silcfm/internal/stats"
)

// numEvKinds counts the movement kinds the tracer records: mem.EvDemand
// through mem.EvUnlock. The kind is also the Perfetto track (tid).
const numEvKinds = int(mem.EvUnlock) + 1

var evNames = [numEvKinds]string{
	"demand", "capture", "deliver", "relocate", "swap", "lock", "unlock",
}

// event is one recorded movement event, kept compact: the ring can hold
// hundreds of thousands of these.
type event struct {
	kind  mem.EventKind
	write bool // demand: write access; lock: home lock
	cycle uint64
	pa    uint64       // demand: flat address; lock/unlock: flat block index
	a, b  mem.Location // a = loc/src/frame, b = dst
}

// Tracer records the semantic movement events of the mem.Observer stream
// (everything but demand issue and completion) into a bounded ring buffer and serializes it as
// Chrome trace-event JSON, viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Timestamps are simulated cycles presented as
// microseconds (Perfetto's native unit); one trace "thread" per event kind
// keeps the tracks separable.
type Tracer struct {
	ring    []event
	next    int    // ring write position
	n       int    // events currently held (<= len(ring))
	total   uint64 // events ever observed
	dropped uint64 // events evicted from the ring

	// Synthetic duration spans injected after the run (exemplar span
	// waterfalls), each on a named track appended after the per-kind
	// instant tracks. Bounded; overflow is counted.
	spanTracks  []string
	spans       []spanEvent
	spanDropped uint64
}

// MaxExtraSpans bounds the injected duration-span list.
const MaxExtraSpans = 8192

// spanEvent is one injected duration span ("X" complete event).
type spanEvent struct {
	track      int
	name       string
	start, dur uint64
	args       map[string]any
}

// NewTracer builds a tracer holding at most limit events (oldest dropped).
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &Tracer{ring: make([]event, 0, limit)}
}

// Observe implements mem.Observer.
func (t *Tracer) Observe(e mem.Event) {
	ev := event{kind: e.Kind, write: e.Write, cycle: e.Cycle, pa: e.PA, a: e.Src, b: e.Dst}
	switch e.Kind {
	case mem.EvIssue, mem.EvComplete:
		return // demand issue and completion move no data
	case mem.EvLock, mem.EvUnlock:
		ev.write, ev.pa, ev.a = e.Home, e.Block, mem.Location{DevAddr: e.Frame}
	}
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
		t.n++
		return
	}
	t.ring[t.next] = ev
	t.next = (t.next + 1) % len(t.ring)
	t.dropped++
}

// Events reports (recorded, dropped) counts.
func (t *Tracer) Events() (total, dropped uint64) { return t.total, t.dropped }

// AddSpan injects a synthetic duration span on the named track (created on
// first use, after the per-kind instant tracks). Used after the run to lay
// exemplar span waterfalls into the trace; args keys must be fixed per call
// site so output stays byte-deterministic. Spans past MaxExtraSpans are
// counted as dropped.
func (t *Tracer) AddSpan(track, name string, start, dur uint64, args map[string]any) {
	if len(t.spans) >= MaxExtraSpans {
		t.spanDropped++
		return
	}
	tid := -1
	for i, tr := range t.spanTracks {
		if tr == track {
			tid = i
			break
		}
	}
	if tid < 0 {
		tid = len(t.spanTracks)
		t.spanTracks = append(t.spanTracks, track)
	}
	t.spans = append(t.spans, spanEvent{track: tid, name: name, start: start, dur: dur, args: args})
}

func locStr(l mem.Location) string {
	lv := "NM"
	if l.Level == stats.FM {
		lv = "FM"
	}
	return fmt.Sprintf("%s:0x%x", lv, l.DevAddr)
}

// traceEvent is the Chrome trace-event JSON shape (instant and complete
// events).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// argsOf renders an event's payload. Map keys per kind are fixed, and
// encoding/json sorts map keys, so output stays byte-deterministic.
func argsOf(e *event) map[string]any {
	switch e.kind {
	case mem.EvDemand:
		op := "read"
		if e.write {
			op = "write"
		}
		return map[string]any{"pa": fmt.Sprintf("0x%x", e.pa), "loc": locStr(e.a), "op": op}
	case mem.EvCapture:
		return map[string]any{"loc": locStr(e.a)}
	case mem.EvDeliver, mem.EvRelocate:
		return map[string]any{"src": locStr(e.a), "dst": locStr(e.b)}
	case mem.EvSwap:
		return map[string]any{"a": locStr(e.a), "b": locStr(e.b)}
	case mem.EvLock:
		kind := "interleaved"
		if e.write {
			kind = "home"
		}
		return map[string]any{"frame": e.a.DevAddr, "block": e.pa, "kind": kind}
	default: // mem.EvUnlock
		return map[string]any{"frame": e.a.DevAddr, "block": e.pa}
	}
}

// Write serializes the ring (oldest first) as a Chrome trace JSON object.
func (t *Tracer) Write(w io.Writer) error {
	bw := &errWriter{w: w}
	io.WriteString(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(ev *traceEvent) {
		if !first {
			io.WriteString(bw, ",\n")
		} else {
			io.WriteString(bw, "\n")
			first = false
		}
		b, err := json.Marshal(ev)
		if err != nil {
			bw.err = err
			return
		}
		bw.Write(b)
	}
	// Name the per-kind tracks.
	for k := 0; k < numEvKinds; k++ {
		emit(&traceEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: k,
			Args: map[string]any{"name": evNames[k]}})
	}
	// Name the injected span tracks, after the per-kind tids.
	for i, tr := range t.spanTracks {
		emit(&traceEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: numEvKinds + i,
			Args: map[string]any{"name": tr}})
	}
	// Ring in arrival order: [next, len) then [0, next) once wrapped.
	for i := 0; i < t.n; i++ {
		e := &t.ring[(t.next+i)%len(t.ring)]
		emit(&traceEvent{
			Name: evNames[e.kind], Ph: "i", Ts: e.cycle, Pid: 0, Tid: int(e.kind),
			S: "t", Args: argsOf(e),
		})
	}
	// Injected duration spans, in insertion order.
	for i := range t.spans {
		sp := &t.spans[i]
		emit(&traceEvent{
			Name: sp.name, Ph: "X", Ts: sp.start, Dur: sp.dur, Pid: 0,
			Tid: numEvKinds + sp.track, Args: sp.args,
		})
	}
	fmt.Fprintf(bw, "\n],\"otherData\":{\"events\":%d,\"dropped\":%d,\"spans\":%d,\"spans_dropped\":%d}}\n",
		t.total, t.dropped, len(t.spans), t.spanDropped)
	return bw.err
}

// errWriter sticks at the first write error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
