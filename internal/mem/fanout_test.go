package mem

import (
	"fmt"
	"reflect"
	"testing"

	"silcfm/internal/stats"
)

// fanObs records the event stream as strings.
type fanObs struct {
	events []string
}

func (r *fanObs) Observe(e Event) {
	var s string
	switch e.Kind {
	case EvDemand:
		s = fmt.Sprintf("demand %x %v %v", e.PA, e.Src, e.Write)
	case EvCapture:
		s = fmt.Sprintf("capture %v", e.Src)
	case EvDeliver:
		s = fmt.Sprintf("deliver %v %v", e.Src, e.Dst)
	case EvRelocate:
		s = fmt.Sprintf("relocate %v %v", e.Src, e.Dst)
	case EvSwap:
		s = fmt.Sprintf("swap %v %v", e.Src, e.Dst)
	case EvLock:
		s = fmt.Sprintf("lock %d %d %v", e.Frame, e.Block, e.Home)
	case EvUnlock:
		s = fmt.Sprintf("unlock %d %d", e.Frame, e.Block)
	case EvIssue:
		s = fmt.Sprintf("issue %x %v %v", e.Access.PAddr, e.Path, e.Src)
	case EvComplete:
		s = fmt.Sprintf("complete %x %v %d", e.Access.PAddr, e.Path, e.Lat)
	}
	r.events = append(r.events, fmt.Sprintf("@%d %s", e.Cycle, s))
}

func emitAll(s *System) {
	nm := Location{Level: stats.NM, DevAddr: 0}
	fm := Location{Level: stats.FM, DevAddr: 64}
	s.NoteDemand(0x40, nm, false)
	s.NoteCapture(fm)
	s.NoteDeliver(fm, nm)
	s.NoteRelocate(nm, fm)
	s.NoteSwap(nm, fm)
	s.NoteLock(3, 7, true)
	s.NoteUnlock(3, 7)
}

func TestAttachObserverSingle(t *testing.T) {
	eng, s := newSys()
	a := &fanObs{}
	s.AttachObserver(a)
	eng.At(5, func() { emitAll(s) })
	eng.Run()

	want := []string{
		"@5 demand 40 {NM 0} false",
		"@5 capture {FM 64}",
		"@5 deliver {FM 64} {NM 0}",
		"@5 relocate {NM 0} {FM 64}",
		"@5 swap {NM 0} {FM 64}",
		"@5 lock 3 7 true",
		"@5 unlock 3 7",
	}
	if !reflect.DeepEqual(a.events, want) {
		t.Errorf("observer events:\n got %q\nwant %q", a.events, want)
	}
}

func TestFanoutBothSeeIdenticalStreams(t *testing.T) {
	_, s := newSys()
	a := &fanObs{}
	b := &fanObs{}
	c := &fanObs{}
	s.AttachObserver(a)
	s.AttachObserver(b)
	s.AttachObserver(c)

	emitAll(s)
	emitAll(s)

	if len(a.events) != 14 {
		t.Fatalf("recorded %d events, want 14", len(a.events))
	}
	if !reflect.DeepEqual(a.events, b.events) || !reflect.DeepEqual(a.events, c.events) {
		t.Errorf("observers diverged:\n a %q\n b %q\n c %q", a.events, b.events, c.events)
	}
}

// taggedObs appends "<tag>:<kind>" to a log shared across observers, so
// tests can assert the relative notification order between members.
type taggedObs struct {
	tag string
	log *[]string
}

var kindNames = [...]string{
	EvDemand: "demand", EvCapture: "capture", EvDeliver: "deliver", EvRelocate: "relocate",
	EvSwap: "swap", EvLock: "lock", EvUnlock: "unlock", EvIssue: "issue", EvComplete: "complete",
}

func (o *taggedObs) Observe(e Event) { *o.log = append(*o.log, o.tag+":"+kindNames[e.Kind]) }

// TestFanoutFirstAttachedFirstNotified pins the documented AttachObserver
// ordering guarantee: for every event, observers are notified in attach
// order before the emitting operation continues.
func TestFanoutFirstAttachedFirstNotified(t *testing.T) {
	_, s := newSys()
	var log []string
	s.AttachObserver(&taggedObs{tag: "first", log: &log})
	s.AttachObserver(&taggedObs{tag: "second", log: &log})
	s.AttachObserver(&taggedObs{tag: "third", log: &log})

	emitAll(s)

	events := []string{"demand", "capture", "deliver", "relocate", "swap", "lock", "unlock"}
	var want []string
	for _, ev := range events {
		for _, tag := range []string{"first", "second", "third"} {
			want = append(want, tag+":"+ev)
		}
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("notification order:\n got %q\nwant %q", log, want)
	}
}

// TestFanoutForwardsDemandComplete checks that demand issue and completion
// reach every observer in attach order, with the completion's span
// attribution already final (residual folded into SpanOther) and its
// latency and cycle consistent with the access's start.
func TestFanoutForwardsDemandComplete(t *testing.T) {
	eng, s := newSys()
	var log []string
	s.AttachObserver(&taggedObs{tag: "first", log: &log})
	rec := &fanObs{}
	s.AttachObserver(rec)
	s.AttachObserver(&taggedObs{tag: "second", log: &log})

	var spanSum, total uint64
	a := &Access{PAddr: 0x40, Start: eng.Now(), Done: func() {}}
	s.ServiceAccess(a, Location{Level: stats.NM, DevAddr: 0x40}, stats.PathNMHit)
	eng.Run()

	want := []string{"first:issue", "second:issue", "first:demand", "second:demand",
		"first:complete", "second:complete"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("issue/complete notification order:\n got %q\nwant %q", log, want)
	}
	total = eng.Now() - a.Start
	wantRec := []string{
		"@0 issue 40 nm-hit {NM 64}",
		"@0 demand 40 {NM 64} false",
		fmt.Sprintf("@%d complete 40 nm-hit %d", eng.Now(), total),
	}
	if !reflect.DeepEqual(rec.events, wantRec) {
		t.Errorf("issue/complete events:\n got %q\nwant %q", rec.events, wantRec)
	}
	for _, v := range a.Spans() {
		spanSum += v
	}
	if spanSum != total {
		t.Errorf("span sum %d != end-to-end latency %d", spanSum, total)
	}
}

func TestFanoutViaCompoundOps(t *testing.T) {
	eng, s := newSys()
	a := &fanObs{}
	b := &fanObs{}
	s.AttachObserver(a)
	s.AttachObserver(b)

	nm := Location{Level: stats.NM, DevAddr: 0}
	fm := Location{Level: stats.FM, DevAddr: 128}
	s.ExchangeSubblocks(nm, fm, nil)
	s.SwapDemand(0x80, nm, fm, false, nil)
	eng.Run()

	want := []string{
		"@0 swap {NM 0} {FM 128}", "@0 capture {NM 0}", "@0 capture {FM 128}",
		"@0 deliver {NM 0} {FM 128}", "@0 deliver {FM 128} {NM 0}",
		"@0 swap {NM 0} {FM 128}", "@0 demand 80 {NM 0} false",
		"@0 capture {NM 0}", "@0 capture {FM 128}",
		"@0 deliver {NM 0} {FM 128}", "@0 deliver {FM 128} {NM 0}",
	}
	if !reflect.DeepEqual(a.events, want) {
		t.Errorf("compound-op events:\n got %q\nwant %q", a.events, want)
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Errorf("observers diverged:\n a %q\n b %q", a.events, b.events)
	}
}

// countObs counts events per kind without allocating.
type countObs struct{ n [EvComplete + 1]int }

func (c *countObs) Observe(e Event) { c.n[e.Kind]++ }

// TestEmitDoesNotAllocate drives every event kind through the System with
// two observers attached: dispatch must pass the event by value, never as
// a pointer that escapes through the interface call.
func TestEmitDoesNotAllocate(t *testing.T) {
	eng, s := newSys()
	a, b := &countObs{}, &countObs{}
	s.AttachObserver(a)
	s.AttachObserver(b)
	acc := &Access{}
	loc := Location{Level: stats.NM, DevAddr: 0x40}
	step := func() {
		emitAll(s)
		acc.Reset(0, 1, 0x40, true, eng.Now(), nil)
		s.ServiceAccess(acc, loc, stats.PathNMHit) // issue, demand, complete
		eng.Run()
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("emitting every event kind allocates %.1f objects per round, want 0", avg)
	}
	for k, n := range a.n {
		if n == 0 || n != b.n[k] {
			t.Fatalf("kind %s: observers saw %d and %d events", kindNames[k], n, b.n[k])
		}
	}
}
