package workload

import (
	"testing"
	"time"
)

// prefetchSpan crosses more than three batch boundaries, ending mid-batch.
const prefetchSpan = 3*prefetchBatch + prefetchBatch/2 + 7

// assertSameStream draws n refs from the bare generator and its prefetched
// twin and requires them to agree ref for ref.
func assertSameStream(t *testing.T, bare, twin Generator, n int) {
	t.Helper()
	pf := Prefetch(twin)
	defer pf.Stop()
	if pf.Name() != bare.Name() || pf.FootprintBytes() != bare.FootprintBytes() {
		t.Fatalf("identity: %q/%d, want %q/%d", pf.Name(), pf.FootprintBytes(), bare.Name(), bare.FootprintBytes())
	}
	var want, got Ref
	for i := 0; i < n; i++ {
		bare.Next(&want)
		pf.Next(&got)
		if got != want {
			t.Fatalf("%s: ref %d (batch %d) = %+v, want %+v", bare.Name(), i, i/prefetchBatch, got, want)
		}
	}
}

func TestPrefetchedMatchesBareGenerator(t *testing.T) {
	for _, name := range []string{"mcf", "lbm", "dealII"} {
		bare, _ := New(name, 7)
		twin, _ := New(name, 7)
		assertSameStream(t, bare, twin, prefetchSpan)
	}
}

func TestPrefetchedMatchesReplayClone(t *testing.T) {
	src, _ := New("gems", 3)
	refs := make([]Ref, 1500) // shorter than the span: the cursor wraps
	for i := range refs {
		src.Next(&refs[i])
	}
	rp, err := NewReplay("gems", refs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameStream(t, rp.CloneAt(1, 4), rp.CloneAt(1, 4), prefetchSpan)
}

// stopWithin fails the test if Stop does not return promptly.
func stopWithin(t *testing.T, pf *Prefetched) {
	t.Helper()
	stopped := make(chan struct{})
	go func() {
		pf.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return")
	}
	select {
	case <-pf.done:
	default:
		t.Fatal("Stop returned before the producer exited")
	}
}

func TestPrefetchedStop(t *testing.T) {
	t.Run("never drawn", func(t *testing.T) {
		g, _ := New("milc", 1)
		stopWithin(t, Prefetch(g))
	})
	t.Run("mid batch", func(t *testing.T) {
		g, _ := New("milc", 1)
		pf := Prefetch(g)
		var r Ref
		for i := 0; i < prefetchBatch+3; i++ {
			pf.Next(&r)
		}
		stopWithin(t, pf)
	})
	t.Run("mid fill", func(t *testing.T) {
		// A whole batch of this generator takes over a second to draw;
		// Stop must not wait for it.
		pf := Prefetch(slowGen{})
		time.Sleep(10 * time.Millisecond)
		start := time.Now()
		stopWithin(t, pf)
		if d := time.Since(start); d > prefetchBatch*time.Millisecond/2 {
			t.Fatalf("Stop waited %v for the batch being drawn", d)
		}
	})
}

// slowGen takes a millisecond per reference.
type slowGen struct{}

func (slowGen) Name() string           { return "slow" }
func (slowGen) FootprintBytes() uint64 { return 0 }
func (slowGen) Next(r *Ref) {
	time.Sleep(time.Millisecond)
	*r = Ref{Gap: 1}
}

func TestPrefetchedNextDoesNotAllocate(t *testing.T) {
	g, _ := New("mcf", 1)
	pf := Prefetch(g)
	defer pf.Stop()
	var r Ref
	pf.Next(&r) // first batch handoff
	// Each run crosses two batch boundaries, so the channel handoffs are
	// measured along with the copies.
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 2*prefetchBatch; i++ {
			pf.Next(&r)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Next allocates %.1f objects per %d refs", allocs, 2*prefetchBatch)
	}
}

// BenchmarkPrefetchedNext measures the consumer's ns/ref when it does
// nothing but draw. On "mcf" the consumer waits on the producer, so this
// is the producer's rate plus the handoff (compare BenchmarkGeneratorNext).
// On "replay" the inner Next is a ~1 ns slice copy, which isolates the
// wrapper's own copy and batch-handoff cost.
func BenchmarkPrefetchedNext(b *testing.B) {
	mcf, _ := New("mcf", 1)
	refs := make([]Ref, 1<<16)
	for i := range refs {
		mcf.Next(&refs[i])
	}
	rp, err := NewReplay("mcf", refs)
	if err != nil {
		b.Fatal(err)
	}
	fresh, _ := New("mcf", 1)
	for _, c := range []struct {
		name string
		g    Generator
	}{{"mcf", fresh}, {"replay", rp}} {
		b.Run(c.name, func(b *testing.B) {
			pf := Prefetch(c.g)
			defer pf.Stop()
			var r Ref
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pf.Next(&r)
			}
		})
	}
}
