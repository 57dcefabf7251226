package flightrec_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
)

// newRec builds a recorder for the synthetic tests, which feed events and
// epochs directly; no simulation runs.
func newRec(t *testing.T) *flightrec.Recorder {
	t.Helper()
	r := flightrec.New(flightrec.Config{}, nil, "test-fp", "test/run")
	if r == nil {
		t.Fatal("New returned nil for an enabled config")
	}
	return r
}

// swap, lock, unlock and complete feed r the mem.Events a System would
// emit, at cycle 0 (the synthetic tests never advance an engine).
func swap(r *flightrec.Recorder, a, b mem.Location) {
	r.Observe(mem.Event{Kind: mem.EvSwap, Src: a, Dst: b})
}

func lock(r *flightrec.Recorder, frame, block uint64, home bool) {
	r.Observe(mem.Event{Kind: mem.EvLock, Frame: frame, Block: block, Home: home})
}

func unlock(r *flightrec.Recorder, frame, block uint64) {
	r.Observe(mem.Event{Kind: mem.EvUnlock, Frame: frame, Block: block})
}

func complete(r *flightrec.Recorder, a *mem.Access, path stats.DemandPath, lat uint64) {
	r.Observe(mem.Event{Kind: mem.EvComplete, Access: a, Path: path, Lat: lat})
}

// epochState synthesizes one epoch boundary. Epoch e spans cycles
// [e*1000, (e+1)*1000), so epoch 0's window starts at cycle 0 and ring
// events stamped at cycle 0 fall inside any pre-window that reaches it.
func epochState(epoch uint64) telemetry.EpochState {
	return telemetry.EpochState{
		Sample: &telemetry.Sample{
			Epoch:      epoch,
			Cycle:      (epoch + 1) * 1000,
			SpanCycles: 1000,
			LLCMisses:  100 + epoch,
			Gauges:     []mem.Gauge{{Name: "locked_frames", Value: float64(epoch)}},
		},
	}
}

// incident builds a minimal open-incident record for kind at epoch e.
func incident(kind string, e uint64) health.Incident {
	return health.Incident{Kind: kind, FirstEpoch: e, LastEpoch: e, PeakSeverity: 1.5}
}

// feed observes epochs [from, to) with no incident activity.
func feed(r *flightrec.Recorder, from, to uint64) {
	for e := from; e < to; e++ {
		r.ObserveEpoch(epochState(e), health.Status{})
	}
}

// trigger opens kind at epoch e (the incident appears in Opened and Open).
func trigger(r *flightrec.Recorder, kind string, e uint64) {
	in := incident(kind, e)
	r.ObserveEpoch(epochState(e), health.Status{
		Open:   []health.Incident{in},
		Opened: []health.Incident{in},
	})
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *flightrec.Recorder
	swap(r, mem.Location{}, mem.Location{})
	lock(r, 1, 2, true)
	unlock(r, 1, 2)
	complete(r, &mem.Access{}, stats.PathBypass, 10)
	r.ObserveEpoch(epochState(0), health.Status{})
	if b := r.Finish(); b != nil {
		t.Errorf("nil recorder Finish = %v, want nil", b)
	}
	if b := r.Bundles(); b != nil {
		t.Errorf("nil recorder Bundles = %v, want nil", b)
	}
	if d := r.DroppedCaptures(); d != 0 {
		t.Errorf("nil recorder DroppedCaptures = %d, want 0", d)
	}
}

func TestDisabledConfigReturnsNil(t *testing.T) {
	r := flightrec.New(flightrec.Config{Disabled: true}, nil, "fp", "run")
	if r != nil {
		t.Fatal("New with Disabled returned a live recorder")
	}
}

// Shorthands for the recorder's bounds.
const (
	H = flightrec.HistoryEpochs
	T = flightrec.TailEpochs
)

// TestCaptureLifecycle walks the full state machine: history fills, an
// incident opens (freezing the ring as the pre-window), stays open, closes,
// and the tail countdown finalizes an unforced bundle.
func TestCaptureLifecycle(t *testing.T) {
	r := newRec(t)
	feed(r, 0, H+1) // ring now holds epochs 1..H
	const e0 = H + 1
	trigger(r, health.KindSwapThrash, e0)
	// Open through e0+1, closed at e0+2, quiet e0+2..e0+T+1 -> finalize.
	open := incident(health.KindSwapThrash, e0)
	r.ObserveEpoch(epochState(e0+1), health.Status{Open: []health.Incident{open}})
	closed := open
	closed.LastEpoch = e0 + 2
	r.ObserveEpoch(epochState(e0+2), health.Status{Closed: []health.Incident{closed}})
	feed(r, e0+3, e0+T+1)
	if n := len(r.Bundles()); n != 0 {
		t.Fatalf("got %d bundles one epoch before the tail ends, want 0", n)
	}
	if b := r.ObserveEpoch(epochState(e0+T+1), health.Status{}); b == nil {
		t.Fatal("the tail's last epoch returned no bundle")
	}

	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1 (tail should have finalized)", len(bundles))
	}
	b := bundles[0]
	if b.Trigger != health.KindSwapThrash || b.Forced {
		t.Errorf("trigger=%q forced=%v, want %q unforced", b.Trigger, b.Forced, health.KindSwapThrash)
	}
	// Ring held epochs 2..e0 at trigger time (capacity H, trigger included).
	if b.PreEpochs != H-1 || b.FirstEpoch != 2 || b.LastEpoch != e0+T+1 {
		t.Errorf("window pre=%d epochs %d-%d, want pre=%d epochs 2-%d", b.PreEpochs, b.FirstEpoch, b.LastEpoch, H-1, e0+T+1)
	}
	if b.FirstCycle != 2000 || b.LastCycle != (e0+T+2)*1000 {
		t.Errorf("cycles %d-%d, want 2000-%d", b.FirstCycle, b.LastCycle, (e0+T+2)*1000)
	}
	if len(b.Epochs) != H+1+T {
		t.Errorf("captured %d epochs, want %d (ring, open epoch, tail)", len(b.Epochs), H+1+T)
	}
	if b.Epochs[b.PreEpochs].Sample.Epoch != e0 {
		t.Errorf("trigger record is epoch %d, want %d", b.Epochs[b.PreEpochs].Sample.Epoch, e0)
	}
	if len(b.Incidents) != 1 || b.Incidents[0].LastEpoch != e0+2 {
		t.Errorf("incidents = %+v, want the one closed record", b.Incidents)
	}
	if len(b.OpenKinds) != 0 {
		t.Errorf("unforced bundle has open kinds %v", b.OpenKinds)
	}
	if len(b.Rules) != 1 || b.Rules[0].Kind != health.KindSwapThrash || b.Rules[0].OpenEpochs != 2 {
		t.Errorf("rule traces = %+v, want swap-thrash open at 2 boundaries", b.Rules)
	}
	// Finish with nothing in flight adds no forced bundle.
	if out := r.Finish(); len(out) != 1 {
		t.Errorf("Finish returned %d bundles, want 1", len(out))
	}
}

// TestRingCapacityOne is the tightest boundary: an incident at the run's
// first epoch finds a ring holding that one epoch, so the trigger epoch
// is the whole window and there is no pre-history.
func TestRingCapacityOne(t *testing.T) {
	r := newRec(t)
	trigger(r, health.KindLockChurn, 0)
	feed(r, 1, T+1)
	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if b.PreEpochs != 0 || b.FirstEpoch != 0 {
		t.Errorf("pre=%d first=%d, want pre=0 first=0", b.PreEpochs, b.FirstEpoch)
	}
	if len(b.Epochs) != 1+T || b.Epochs[0].Sample.Epoch != 0 {
		t.Errorf("epochs = %d starting at %d, want %d starting at 0", len(b.Epochs), b.Epochs[0].Sample.Epoch, 1+T)
	}
}

// TestPreWindowShorterThanHistory: an incident in the run's first epochs
// must capture only what exists, not a full ring of stale slots.
func TestPreWindowShorterThanHistory(t *testing.T) {
	r := newRec(t)
	feed(r, 0, 2)
	trigger(r, health.KindQueueSaturation, 2)
	feed(r, 3, 3+T)
	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if b.PreEpochs != 2 || b.FirstEpoch != 0 || len(b.Epochs) != 3+T {
		t.Errorf("pre=%d first=%d n=%d, want pre=2 first=0 n=%d", b.PreEpochs, b.FirstEpoch, len(b.Epochs), 3+T)
	}
	for i := range b.Epochs {
		if b.Epochs[i].Sample.Epoch != uint64(i) {
			t.Fatalf("epoch record %d holds epoch %d, want oldest-first 0,1,2,...", i, b.Epochs[i].Sample.Epoch)
		}
	}
}

// TestRingExactWrap fills the ring an exact multiple of its capacity before
// triggering, so head has wrapped back to zero: the oldest-first walk must
// still produce strictly increasing epochs.
func TestRingExactWrap(t *testing.T) {
	r := newRec(t)
	feed(r, 0, 2*H) // two full revolutions; head back at slot 0
	trigger(r, health.KindSwapThrash, 2*H)
	feed(r, 2*H+1, 2*H+1+T)
	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if b.PreEpochs != H-1 || b.FirstEpoch != H+1 {
		t.Errorf("pre=%d first=%d, want pre=%d first=%d", b.PreEpochs, b.FirstEpoch, H-1, H+1)
	}
	want := uint64(H + 1)
	for i := range b.Epochs {
		if b.Epochs[i].Sample.Epoch != want {
			t.Fatalf("epoch record %d holds epoch %d, want %d", i, b.Epochs[i].Sample.Epoch, want)
		}
		want++
	}
	// Each record owns its gauges: ring reuse after capture must not reach
	// into an emitted bundle.
	feed(r, 2*H+1+T, 4*H)
	if g := b.Epochs[0].Sample.Gauges[0].Value; g != H+1 {
		t.Errorf("bundle gauge mutated to %v after ring reuse, want %d", g, H+1)
	}
}

// TestForcedFlushAtFinish: a capture still in flight at end of run becomes
// a forced bundle naming the still-open kinds in detector order.
func TestForcedFlushAtFinish(t *testing.T) {
	r := newRec(t)
	feed(r, 0, 3)
	trigger(r, health.KindSwapThrash, 3)
	open := []health.Incident{incident(health.KindSwapThrash, 3), incident(health.KindQueueSaturation, 4)}
	r.ObserveEpoch(epochState(4), health.Status{Open: open, Opened: open[1:]})
	out := r.Finish()
	if len(out) != 1 {
		t.Fatalf("Finish returned %d bundles, want 1 forced", len(out))
	}
	b := out[0]
	if !b.Forced || b.Trigger != health.KindSwapThrash {
		t.Errorf("forced=%v trigger=%q, want forced swap-thrash", b.Forced, b.Trigger)
	}
	wantKinds := []string{health.KindSwapThrash, health.KindQueueSaturation}
	if len(b.OpenKinds) != 2 || b.OpenKinds[0] != wantKinds[0] || b.OpenKinds[1] != wantKinds[1] {
		t.Errorf("open kinds = %v, want %v (detector order)", b.OpenKinds, wantKinds)
	}
}

// TestCaptureEpochBound: an incident that never closes stops growing its
// capture at MaxCaptureEpochs records and counts the rest as dropped.
func TestCaptureEpochBound(t *testing.T) {
	r := newRec(t)
	trigger(r, health.KindQueueSaturation, 0)
	open := []health.Incident{incident(health.KindQueueSaturation, 0)}
	const extra = 10
	for e := uint64(1); e < flightrec.MaxCaptureEpochs+extra; e++ {
		r.ObserveEpoch(epochState(e), health.Status{Open: open})
	}
	out := r.Finish()
	if len(out) != 1 {
		t.Fatalf("Finish returned %d bundles, want 1 forced", len(out))
	}
	b := out[0]
	if len(b.Epochs) != flightrec.MaxCaptureEpochs || b.EpochsDropped != extra {
		t.Errorf("captured %d epochs with %d dropped, want %d and %d",
			len(b.Epochs), b.EpochsDropped, flightrec.MaxCaptureEpochs, extra)
	}
}

// TestMaxBundlesDropsLaterCaptures: opens past the bundle cap are refused
// and counted, never silently captured.
func TestMaxBundlesDropsLaterCaptures(t *testing.T) {
	r := newRec(t)
	e := uint64(0)
	for i := 0; i < flightrec.MaxBundles; i++ {
		trigger(r, health.KindSwapThrash, e)
		feed(r, e+1, e+1+T) // tail -> bundle i
		e += 1 + T
	}
	trigger(r, health.KindSwapThrash, e) // refused: cap reached
	feed(r, e+1, e+1+T)
	if n := len(r.Bundles()); n != flightrec.MaxBundles {
		t.Errorf("got %d bundles, want %d", n, flightrec.MaxBundles)
	}
	if d := r.DroppedCaptures(); d != 1 {
		t.Errorf("DroppedCaptures = %d, want 1", d)
	}
}

// TestEventExcerptBounds: the movement ring keeps the newest EventRing
// events, the pre-trigger excerpt keeps the newest MaxBundleEvents of
// those, and during-capture overflow is counted rather than grown.
func TestEventExcerptBounds(t *testing.T) {
	r := newRec(t)
	const pushed = flightrec.EventRing + 6
	for i := uint64(0); i < pushed; i++ {
		lock(r, i, 100+i, false) // engine never advances: all at cycle 0
	}
	trigger(r, health.KindLockChurn, 0) // epoch 0 spans cycle 0: all in window
	for i := uint64(0); i < 3; i++ {
		unlock(r, i, 100+i) // during capture, but the excerpt is already full
	}
	feed(r, 1, 1+T)
	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if len(b.Events) != flightrec.MaxBundleEvents {
		t.Fatalf("excerpt holds %d events, want %d", len(b.Events), flightrec.MaxBundleEvents)
	}
	// Newest pre-trigger events kept: locks of the last MaxBundleEvents
	// frames.
	first := uint64(pushed - flightrec.MaxBundleEvents)
	for i, ev := range b.Events {
		if ev.Kind != "lock" || ev.Src != first+uint64(i) {
			t.Fatalf("event %d = %+v, want lock frame %d", i, ev, first+uint64(i))
		}
	}
	// The ring held only EventRing of the pushed events; of those, the
	// older ones beyond the excerpt and the 3 during-capture unlocks drop.
	if want := uint64(flightrec.EventRing - flightrec.MaxBundleEvents + 3); b.EventsDropped != want {
		t.Errorf("EventsDropped = %d, want %d", b.EventsDropped, want)
	}
}

// TestOffenderTopK: per-epoch top-K selection is count desc then block asc,
// and the table resets between epochs.
func TestOffenderTopK(t *testing.T) {
	r := newRec(t)
	hit := func(block, times uint64) {
		a := &mem.Access{PAddr: block << 11}
		for i := uint64(0); i < times; i++ {
			complete(r, a, stats.PathNMHit, 100)
		}
	}
	hit(7, 5)
	hit(3, 5) // ties block 7 on count; lower block ranks first
	hit(9, 9)
	// TopK-3 blocks tied at 2 demands, fed in descending block order.
	for b := uint64(20 + flightrec.TopK - 4); b >= 20; b-- {
		hit(b, 2)
	}
	hit(1, 1) // squeezed out of the top K
	trigger(r, health.KindSwapThrash, 0)
	hit(42, 2) // next epoch's table starts clean
	feed(r, 1, 1+T)
	bundles := r.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	ep0 := b.Epochs[0]
	want := []flightrec.Offender{
		{Block: 9, Demands: 9, LatCycles: 900},
		{Block: 3, Demands: 5, LatCycles: 500},
		{Block: 7, Demands: 5, LatCycles: 500},
	}
	for b := uint64(20); len(want) < flightrec.TopK; b++ {
		want = append(want, flightrec.Offender{Block: b, Demands: 2, LatCycles: 200})
	}
	if !reflect.DeepEqual(ep0.Offenders, want) {
		t.Fatalf("epoch 0 offenders = %+v, want %+v", ep0.Offenders, want)
	}
	if ep0.OffenderBlocks != flightrec.TopK+1 {
		t.Errorf("epoch 0 distinct blocks = %d, want %d", ep0.OffenderBlocks, flightrec.TopK+1)
	}
	ep1 := b.Epochs[1]
	if len(ep1.Offenders) != 1 || ep1.Offenders[0].Block != 42 {
		t.Errorf("epoch 1 offenders = %+v, want only block 42 (table not cleared?)", ep1.Offenders)
	}
	// Window-wide aggregation merges every epoch and keeps the top K.
	if len(b.Offenders) != flightrec.TopK || b.Offenders[0].Block != 9 {
		t.Errorf("window offenders = %+v, want %d with block 9 first", b.Offenders, flightrec.TopK)
	}
}

// TestSteadyStateObserveDoesNotAllocate: with no incident in flight, the
// per-epoch and per-event paths must stay allocation-free once the gauge
// buffers have warmed up — the recorder is always on, so its steady state
// rides the simulation inner loop.
func TestSteadyStateObserveDoesNotAllocate(t *testing.T) {
	r := newRec(t)
	st := epochState(0)
	attr := &stats.Attribution{}
	st.Attr = attr
	feed(r, 0, 2*H) // warm the gauge buffers through a full ring revolution
	epoch := uint64(2 * H)
	avg := testing.AllocsPerRun(200, func() {
		st.Sample.Epoch = epoch
		st.Sample.Cycle = (epoch + 1) * 1000
		attr.Count[stats.PathNMHit] += 10
		r.ObserveEpoch(st, health.Status{})
		epoch++
	})
	if avg != 0 {
		t.Errorf("steady-state Observe allocates %.1f objects/epoch, want 0", avg)
	}
	a := &mem.Access{PAddr: 123 << 11}
	avg = testing.AllocsPerRun(200, func() {
		complete(r, a, stats.PathBypass, 50)
		swap(r, mem.Location{Level: stats.NM, DevAddr: 1}, mem.Location{Level: stats.FM, DevAddr: 2})
	})
	if avg != 0 {
		t.Errorf("steady-state event feed allocates %.1f objects/event, want 0", avg)
	}
}

// TestSyntheticBundleDeterminism: two recorders fed the same sequence emit
// byte-identical bundles, and the encoding round-trips through Decode.
func TestSyntheticBundleDeterminism(t *testing.T) {
	mk := func() *flightrec.Bundle {
		r := newRec(t)
		for i := uint64(0); i < 6; i++ {
			lock(r, i, 200+i, i%2 == 0)
			complete(r, &mem.Access{PAddr: (300 + i) << 11}, stats.PathFM, 80+i)
		}
		feed(r, 0, 3)
		trigger(r, health.KindSwapThrash, 3)
		r.ObserveEpoch(epochState(4), health.Status{})
		r.ObserveEpoch(epochState(5), health.Status{})
		out := r.Finish()
		if len(out) != 1 {
			t.Fatalf("got %d bundles, want 1", len(out))
		}
		return &out[0]
	}
	var a, b bytes.Buffer
	if err := mk().Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk().Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical feeds produced different bundle bytes:\n%s\nvs\n%s", a.String(), b.String())
	}
	dec, err := flightrec.Decode(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Trigger != health.KindSwapThrash || len(dec.Epochs) != 6 {
		t.Errorf("round-trip = trigger %q, %d epochs; want swap-thrash, 6", dec.Trigger, len(dec.Epochs))
	}
	if _, err := flightrec.Decode(strings.NewReader(`{"schema":"bogus-v9"}`)); err == nil {
		t.Error("Decode accepted an unknown schema")
	}
}

// thrashSpec is the small SILC-FM configuration the CI postmortem stage
// uses: an 8 MB near memory under a milc footprint slice that reliably
// opens swap-thrash (at epoch 0) and queue-saturation incidents.
func thrashSpec() harness.Spec {
	m := config.Default()
	m.Scheme = config.SchemeSILCFM
	m.NM = config.HBM(8 << 20)
	m.FM = config.DDR3(32 << 20)
	return harness.Spec{
		Machine:      m,
		Workload:     "milc",
		InstrPerCore: 100_000,
		FootScaleNum: 1,
		FootScaleDen: 16,
	}
}

// TestHarnessBundleByteDeterminism: a real thrashing run captures at least
// one bundle, and repeat runs reproduce every byte. (Inertness is proven
// for every plane at once by manifest's TestPlanesAreInert.)
func TestHarnessBundleByteDeterminism(t *testing.T) {
	run := func(spec harness.Spec) *harness.Result {
		t.Helper()
		res, err := harness.Run(spec)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	a := run(thrashSpec())
	if len(a.Bundles) == 0 {
		t.Fatal("thrash config captured no bundles")
	}
	if a.Bundles[0].Trigger == "" || a.Bundles[0].Fingerprint == "" {
		t.Errorf("bundle missing trigger/fingerprint: %+v", a.Bundles[0])
	}
	b := run(thrashSpec())
	if len(a.Bundles) != len(b.Bundles) {
		t.Fatalf("repeat run captured %d bundles, first captured %d", len(b.Bundles), len(a.Bundles))
	}
	for i := range a.Bundles {
		var ba, bb bytes.Buffer
		if err := a.Bundles[i].Encode(&ba); err != nil {
			t.Fatal(err)
		}
		if err := b.Bundles[i].Encode(&bb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Errorf("bundle %d differs between identical runs", i)
		}
	}
}
