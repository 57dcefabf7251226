package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"silcfm/internal/cpu"
	"silcfm/internal/harness"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/vm"
	"silcfm/internal/workload"
)

// Wrapped layers, in the order their self times are reported.
const (
	layerWorkload = iota // workload.Generator.Next
	layerVM              // the cpu.Translate func (vm.AddressSpace)
	layerCtl             // mem.Controller.Handle, with the mem/dram plumbing it reaches synchronously
	numLayers
)

var layerSpanName = [numLayers]string{"workload.next", "vm.translate", "ctl.handle"}

// span is one traced call. Spans caused by one memory reference (its Next,
// its Translate and the Handle of its LLC miss or writeback) share req.
// Parent indexes the enclosing span in the same sample; the root of each
// sampled group is the sim.event span of the event dispatch it ran in.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// Sampling: one event dispatch in sampleEvery is timed, with every wrapped
// call inside it; the others only count their calls, so the clock reads
// cost the loop little. The first maxSpans spans of the sampled events are
// kept, so the span file stays bounded.
const (
	sampleEvery = 256
	maxSpans    = 1 << 16
)

// frame is an open timed call on the tracer's stack.
type frame struct {
	layer   int
	start   int64
	childNs int64
	span    int // index into tracer.spans, or -1 when the span cap is reached
}

// tracer counts every wrapped call and times those in sampled events. A
// timed call's self time is its duration minus the timed calls nested in
// it, so within the sampled events the layers' self times plus the
// engine's own time add up to the events' time exactly.
type tracer struct {
	base  time.Time
	stack []frame
	calls [numLayers]uint64 // every call
	// timed and selfNs cover the calls in sampled events: their count and
	// their summed self time.
	timed   [numLayers]uint64
	selfNs  [numLayers]int64
	req     uint64
	events  uint64
	sampled uint64 // sampled events
	eventNs int64  // summed duration of the sampled events
	// sampling is set while a sampled event runs; eventStart is its start
	// and eventAt its sim.event span, or -1.
	sampling   bool
	eventStart int64
	eventAt    int
	spans      []span
	// replay records the first replayCap translated references for the
	// translate and cache-hierarchy replay microbenchmarks.
	replay []recordedRef
	xwrite bool
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), eventAt: -1, replay: make([]recordedRef, 0, replayCap)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) enter(layer int) {
	t.calls[layer]++
	if !t.sampling {
		return
	}
	f := frame{layer: layer, span: -1}
	if len(t.spans) < maxSpans {
		parent := t.eventAt
		if n := len(t.stack); n > 0 && t.stack[n-1].span >= 0 {
			parent = t.stack[n-1].span
		}
		f.span = len(t.spans)
		t.spans = append(t.spans, span{Name: layerSpanName[layer], Req: t.req, Parent: parent})
	}
	f.start = t.now()
	if f.span >= 0 {
		t.spans[f.span].Start = f.start
	}
	t.stack = append(t.stack, f)
}

// exit closes the call enter opened. Sampling changes only between events,
// so a call entered unsampled also exits unsampled.
func (t *tracer) exit() {
	if !t.sampling {
		return
	}
	end := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := end - f.start
	t.selfNs[f.layer] += d - f.childNs
	t.timed[f.layer]++
	if n > 0 {
		t.stack[n-1].childNs += d
	}
	if f.span >= 0 {
		t.spans[f.span].End = end
	}
}

// beforeEvent runs once per event dispatch (it is the RunWhile cond): it
// closes the previous sampled event and opens the next one.
func (t *tracer) beforeEvent() {
	t.endEvent()
	t.events++
	if t.events%sampleEvery != 0 {
		return
	}
	t.sampling = true
	t.sampled++
	if len(t.spans) < maxSpans {
		t.eventAt = len(t.spans)
		t.spans = append(t.spans, span{Name: "sim.event", Parent: -1})
	}
	t.eventStart = t.now()
	if t.eventAt >= 0 {
		t.spans[t.eventAt].Start = t.eventStart
	}
}

// endEvent closes the sampled event in progress, if any.
func (t *tracer) endEvent() {
	if !t.sampling {
		return
	}
	end := t.now()
	t.eventNs += end - t.eventStart
	if t.eventAt >= 0 {
		t.spans[t.eventAt].End = end
		t.eventAt = -1
	}
	t.sampling = false
}

// emptyCallNs is the self time the tracer records for a timed call that
// does nothing: the clock read and bookkeeping inside the timed interval,
// which every timed call's self time includes.
func emptyCallNs() float64 {
	const n = 1_000_000
	// The span sample starts full, so no call appends a span: that cost
	// stops once the cap is reached early in a traced pass.
	t := &tracer{base: time.Now(), eventAt: -1, sampling: true, spans: make([]span, maxSpans)}
	for i := 0; i < n; i++ {
		t.enter(layerWorkload)
		t.exit()
	}
	return float64(t.selfNs[layerWorkload]) / n
}

// tracedGen wraps one core's generator.
type tracedGen struct {
	workload.Generator
	t *tracer
}

func (g tracedGen) Next(r *workload.Ref) {
	g.t.req++
	g.t.enter(layerWorkload)
	g.Generator.Next(r)
	g.t.exit()
	g.t.xwrite = r.Write
}

// tracedCtl wraps the scheme controller.
type tracedCtl struct {
	mem.Controller
	t *tracer
}

func (c tracedCtl) Handle(a *mem.Access) {
	c.t.enter(layerCtl)
	c.Controller.Handle(a)
	c.t.exit()
}

// tracedRun is the outcome of one traced pass.
type tracedRun struct {
	out    simOutcome
	t      *tracer
	loopNs int64
	sys    *mem.System
}

// runTraced assembles the machine harness.Run would build for spec from
// the public constructors (without the observability planes, which are
// read-only), wraps the generator, the translate func and the controller,
// and runs the event loop with a cond that counts events.
func runTraced(spec harness.Spec) (*tracedRun, error) {
	m := spec.Machine
	params, err := genParams(spec)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	gens := make([]workload.Generator, m.Cores)
	targets := make([]uint64, m.Cores)
	for i := range gens {
		gens[i] = tracedGen{Generator: workload.NewSynthetic(params, genSeed(m, i)), t: t}
		targets[i] = spec.InstrPerCore
	}
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	ctl, err := harness.NewController(m, sys)
	if err != nil {
		return nil, err
	}
	space := addressSpace(m)
	xlate := func(c int, va uint64) uint64 {
		t.enter(layerVM)
		pa := space.MustTranslate(vm.CoreVA(c, va))
		t.exit()
		if len(t.replay) < replayCap {
			t.replay = append(t.replay, recordedRef{va: va, pa: pa, core: uint8(c), write: t.xwrite})
		}
		return pa
	}
	cx := cpu.NewComplexTargets(m, eng, gens, xlate, tracedCtl{Controller: ctl, t: t}, targets)
	cx.Start()
	start := time.Now()
	eng.RunWhile(func() bool {
		if cx.AllDone() {
			return false
		}
		t.beforeEvent()
		return true
	})
	loopNs := int64(time.Since(start))
	t.endEvent()
	if !cx.AllDone() {
		return nil, fmt.Errorf("traced: simulation deadlocked at cycle %d", eng.Now())
	}
	out := simOutcome{cycles: cx.ExecutionCycles(), mem: memoryOf(sys), lat: sys.Lat, attr: sys.Attr}
	for _, c := range cx.Cores {
		out.cores = append(out.cores, c.Stats)
	}
	return &tracedRun{out: out, t: t, loopNs: loopNs, sys: sys}, nil
}

// wrappedNs is the self time of every wrapped layer in the sampled events;
// their time minus it is the engine's own time there (cpu, cache, DRAM
// events, dispatch).
func (r *tracedRun) wrappedNs() int64 {
	var s int64
	for _, v := range r.t.selfNs {
		s += v
	}
	return s
}

// writeSpans writes the sampled spans as JSON lines.
func (r *tracedRun) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.t.spans {
		if err := enc.Encode(r.t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
