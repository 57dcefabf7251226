package exemplar_test

import (
	"bytes"
	"slices"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry/exemplar"
)

// newRecorder builds a recorder over a bare idle system, so tests can feed
// the observer hooks directly with hand-built accesses.
func newRecorder(t *testing.T) (*sim.Engine, *mem.System, *exemplar.Recorder) {
	t.Helper()
	eng := sim.NewEngine()
	sys := mem.NewSystem(config.Small(), eng)
	r := exemplar.New(exemplar.Config{}, sys, nil)
	if r == nil {
		t.Fatal("New returned nil for an enabled config")
	}
	return eng, sys, r
}

// feed issues and completes one access at the given cycle with the given
// latency. Spans are stamped so they sum exactly to lat (all SpanService),
// mirroring the attribution invariant the recorder relies on.
func feed(eng *sim.Engine, sys *mem.System, r *exemplar.Recorder,
	path stats.DemandPath, pa, at, lat uint64) {
	eng.At(at, func() {
		a := &mem.Access{PAddr: pa, Start: at - lat}
		a.AddSpan(stats.SpanService, lat)
		issue(eng, r, a, path, sys.HomeLocation(pa))
		complete(eng, r, a, path, lat)
	})
}

// issue and complete feed r the EvIssue/EvComplete events a System would
// emit at eng's current cycle.
func issue(eng *sim.Engine, r *exemplar.Recorder, a *mem.Access, path stats.DemandPath, loc mem.Location) {
	r.Observe(mem.Event{Kind: mem.EvIssue, Cycle: eng.Now(), Access: a, Path: path, Src: loc})
}

func complete(eng *sim.Engine, r *exemplar.Recorder, a *mem.Access, path stats.DemandPath, lat uint64) {
	r.Observe(mem.Event{Kind: mem.EvComplete, Cycle: eng.Now(), Access: a, Path: path, Lat: lat})
}

func latenciesOf(es []exemplar.Exemplar) []uint64 {
	var out []uint64
	for i := range es {
		out = append(out, es[i].Latency)
	}
	return out
}

func TestDisabledIsNilAndNilSafe(t *testing.T) {
	eng := sim.NewEngine()
	sys := mem.NewSystem(config.Small(), eng)
	r := exemplar.New(exemplar.Config{Disabled: true}, sys, nil)
	if r != nil {
		t.Fatal("Disabled config did not return nil")
	}
	// Every method must be a no-op on the nil receiver.
	a := &mem.Access{PAddr: 64}
	issue(eng, r, a, stats.PathNMHit, sys.HomeLocation(64))
	complete(eng, r, a, stats.PathNMHit, 10)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil recorder Snapshot = %v, want nil", got)
	}
	if got := r.Finish(); got != nil {
		t.Fatalf("nil recorder Finish = %v, want nil", got)
	}
}

func TestFewerThanKKeepsAll(t *testing.T) {
	eng, sys, r := newRecorder(t)
	for i, lat := range []uint64{30, 10, 20} {
		feed(eng, sys, r, stats.PathNMHit, uint64(i)*64, 100+uint64(i)*100, lat)
	}
	eng.Run()
	es := r.Finish()
	if len(es) != 3 {
		t.Fatalf("captured %d exemplars, want 3", len(es))
	}
	want := []uint64{30, 20, 10}
	for i, w := range want {
		if es[i].Latency != w {
			t.Fatalf("snapshot latencies %v, want worst-first %v", latenciesOf(es), want)
		}
	}
}

func TestFullReservoirKeepsOnlyTheWorst(t *testing.T) {
	eng, sys, r := newRecorder(t)
	// K-1 accesses slower than 90, one 90 that becomes the reservoir's
	// root, then a later exact tie with the root and a faster access.
	var lats []uint64
	for i := 0; i < exemplar.K-1; i++ {
		lats = append(lats, 100+uint64(i))
	}
	lats = append(lats, 90, 90, 5)
	for i, lat := range lats {
		feed(eng, sys, r, stats.PathFM, uint64(i)*64, 100+uint64(i)*100, lat)
	}
	eng.Run()
	es := r.Finish()
	if len(es) != exemplar.K {
		t.Fatalf("full reservoir holds %d exemplars, want K=%d", len(es), exemplar.K)
	}
	if es[0].Latency != 100+uint64(exemplar.K-2) {
		t.Fatalf("worst kept latency %d, want %d", es[0].Latency, 100+exemplar.K-2)
	}
	last := es[len(es)-1]
	if last.Latency != 90 {
		t.Fatalf("least kept latency %d, want 90", last.Latency)
	}
	// On the full-reservoir exact tie (the second 90), the incumbent keeps
	// its slot: the survivor must be the first 90 (earlier start, earlier seq).
	if first90 := uint64(100 + (exemplar.K-1)*100 - 90); last.StartCycle != first90 {
		t.Fatalf("tie broke toward the later access: start=%d, want %d",
			last.StartCycle, first90)
	}
}

func TestEvictionBoundary(t *testing.T) {
	eng, sys, r := newRecorder(t)
	// Fill the reservoir with latencies 20, 30, ..., 10*(K+1); 20 is the
	// root.
	n := uint64(exemplar.K)
	for i := uint64(0); i < n; i++ {
		feed(eng, sys, r, stats.PathSwap, i*64, 100+i*100, 20+10*i)
	}
	// Below the root: must be rejected. Above the root: must evict it.
	feed(eng, sys, r, stats.PathSwap, n*64, 100+n*100, 15)
	feed(eng, sys, r, stats.PathSwap, (n+1)*64, 200+n*100, 25)
	eng.Run()
	got := latenciesOf(r.Finish())
	var want []uint64
	for lat := 10 * (n + 1); lat >= 30; lat -= 10 {
		want = append(want, lat)
	}
	want = append(want, 25)
	if !slices.Equal(got, want) {
		t.Fatalf("reservoir after boundary churn holds %v, want %v", got, want)
	}
}

func TestExactTieOrderIsPinned(t *testing.T) {
	eng, sys, r := newRecorder(t)
	// Three accesses with identical latency, distinct start cycles, fed
	// out of start order. Worst-first order pins start asc then seq asc.
	for _, at := range []uint64{300, 100, 200} {
		feed(eng, sys, r, stats.PathNMHit, at, at, 50)
	}
	eng.Run()
	es := r.Finish()
	if len(es) != 3 {
		t.Fatalf("captured %d, want 3", len(es))
	}
	for i, wantStart := range []uint64{50, 150, 250} {
		if es[i].StartCycle != wantStart {
			t.Fatalf("tie order: snapshot[%d].StartCycle=%d, want %d",
				i, es[i].StartCycle, wantStart)
		}
	}
	for i := 1; i < len(es); i++ {
		if es[i].Seq <= es[i-1].Seq {
			t.Fatalf("equal-start tie must order by seq asc: %d after %d",
				es[i].Seq, es[i-1].Seq)
		}
	}
}

func TestPathsAreIndependentAndGrouped(t *testing.T) {
	eng, sys, r := newRecorder(t)
	feed(eng, sys, r, stats.PathFM, 64, 100, 10)
	feed(eng, sys, r, stats.PathNMHit, 128, 200, 99)
	feed(eng, sys, r, stats.PathFM, 192, 300, 20)
	eng.Run()
	es := r.Finish()
	if len(es) != 3 {
		t.Fatalf("captured %d, want 3", len(es))
	}
	// Snapshot is grouped in stats.DemandPath order: nm-hit before fm,
	// worst-first inside each group.
	wantPaths := []string{stats.PathNMHit.String(), stats.PathFM.String(), stats.PathFM.String()}
	wantLats := []uint64{99, 20, 10}
	for i := range es {
		if es[i].Path != wantPaths[i] || es[i].Latency != wantLats[i] {
			t.Fatalf("snapshot[%d] = %s/%d, want %s/%d",
				i, es[i].Path, es[i].Latency, wantPaths[i], wantLats[i])
		}
	}
}

func TestSpanSumEqualsLatency(t *testing.T) {
	eng, _, r := newRecorder(t)
	eng.At(100, func() {
		a := &mem.Access{PAddr: 64, Start: 40}
		a.AddSpan(stats.SpanQueue, 13)
		a.AddSpan(stats.SpanService, 27)
		a.AddSpan(stats.SpanMetaFetch, 11)
		a.AddSpan(stats.SpanOther, 9)
		complete(eng, r, a, stats.PathMispredict, 60)
	})
	eng.Run()
	es := r.Finish()
	if len(es) != 1 {
		t.Fatalf("captured %d, want 1", len(es))
	}
	var sum uint64
	for _, sp := range es[0].Spans {
		sum += sp.Cycles
	}
	if sum != es[0].Latency {
		t.Fatalf("span sum %d != latency %d", sum, es[0].Latency)
	}
	if es[0].Issue != nil {
		t.Fatal("completion without EvIssue must leave Issue nil")
	}
}

func TestSnapshotJSONLIsByteDeterministic(t *testing.T) {
	run := func() []byte {
		eng, sys, r := newRecorder(t)
		for i, lat := range []uint64{40, 40, 7, 93, 21, 40} {
			feed(eng, sys, r, stats.DemandPath(i%3), uint64(i)*64, 100+uint64(i)*50, lat)
		}
		eng.Run()
		var b bytes.Buffer
		if err := exemplar.WriteJSONL(&b, r.Finish()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty JSONL")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("JSONL differs between identical runs:\n%s\nvs\n%s", a, b)
	}
}

func TestSteadyStateAdmissionDoesNotAllocate(t *testing.T) {
	eng, sys, r := newRecorder(t)
	loc := sys.HomeLocation(64)
	a := &mem.Access{}
	lat := uint64(100)
	// Warm up: fill the reservoir and reach the peak in-flight map size.
	for i := 0; i < 2*exemplar.K; i++ {
		lat++
		a.Reset(0, 0, 64, false, 0, nil)
		issue(eng, r, a, stats.PathSwap, loc)
		complete(eng, r, a, stats.PathSwap, lat)
	}
	// Every iteration admits (latency strictly increasing), exercising the
	// full issue → evict-root → fill path. Must be allocation-free.
	allocs := testing.AllocsPerRun(200, func() {
		lat++
		a.Reset(0, 0, 64, false, 0, nil)
		issue(eng, r, a, stats.PathSwap, loc)
		complete(eng, r, a, stats.PathSwap, lat)
	})
	if allocs != 0 {
		t.Fatalf("steady-state admission allocates %.1f per access, want 0", allocs)
	}
	_ = eng
}

func TestSummarizeCountsAndWorst(t *testing.T) {
	eng, sys, r := newRecorder(t)
	feed(eng, sys, r, stats.PathNMHit, 64, 100, 10)
	feed(eng, sys, r, stats.PathNMHit, 128, 200, 30)
	feed(eng, sys, r, stats.PathBypass, 192, 300, 77)
	eng.Run()
	sums := exemplar.Summarize(r.Finish())
	if len(sums) != 2 {
		t.Fatalf("got %d path summaries, want 2", len(sums))
	}
	if sums[0].Path != stats.PathNMHit.String() || sums[0].Count != 2 || sums[0].WorstLatency != 30 {
		t.Fatalf("nm-hit summary %+v", sums[0])
	}
	if sums[1].Path != stats.PathBypass.String() || sums[1].Count != 1 || sums[1].WorstLatency != 77 {
		t.Fatalf("bypass summary %+v", sums[1])
	}
	if sums[1].WorstSpan != stats.SpanService.String() {
		t.Fatalf("worst span %q, want %q", sums[1].WorstSpan, stats.SpanService)
	}
}
