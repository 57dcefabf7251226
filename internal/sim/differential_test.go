package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// sched abstracts the two scheduler implementations under differential
// test: the production wheel+heap Engine and the reference plain-heap
// scheduler below (the semantics of the pre-wheel implementation).
type sched interface {
	Now() Cycle
	At(when Cycle, fn func())
	Step() bool
}

// refSched is a deliberately simple reference scheduler: one flat event
// list, minimum by exact (when, seq) scan, identical past-clamp semantics.
// It is observably equivalent to the old container/heap implementation and
// slow enough that nobody will be tempted to ship it.
type refSched struct {
	now Cycle
	seq uint64
	evs []event
}

func (r *refSched) Now() Cycle { return r.now }

func (r *refSched) At(when Cycle, fn func()) {
	if when < r.now {
		when = r.now
	}
	r.seq++
	r.evs = append(r.evs, event{when: when, seq: r.seq, fn: fn})
}

func (r *refSched) Step() bool {
	if len(r.evs) == 0 {
		return false
	}
	min := 0
	for i := 1; i < len(r.evs); i++ {
		if eventLess(r.evs[i], r.evs[min]) {
			min = i
		}
	}
	ev := r.evs[min]
	r.evs = append(r.evs[:min], r.evs[min+1:]...)
	r.now = ev.when
	ev.fn()
	return true
}

// splitmix64 gives each event a deterministic decision stream derived only
// from its ID, so both schedulers replay identical re-entrant behavior as
// long as their dispatch orders agree (and diverge visibly when not).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scriptedRun drives s with a deterministic event program: roots scheduled
// from seed, and every fired event re-entrantly scheduling 0-3 children at
// offsets that exercise same-cycle ties (0), short delays (wheel), past
// times (clamp), and far-future delays (heap fallback). It returns the
// dispatch order as event IDs.
func scriptedRun(s sched, seed uint64, roots, maxEvents int) []int {
	var order []int
	nextID := 0
	total := 0

	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			order = append(order, id)
			h := splitmix64(seed ^ uint64(id)*0x9e3779b9)
			children := int(h % 4) // 0..3
			for c := 0; c < children && total < maxEvents; c++ {
				hc := splitmix64(h + uint64(c))
				var when Cycle
				switch hc % 5 {
				case 0:
					when = s.Now() // same-cycle tie with anything pending
				case 1:
					// Past time: must clamp to now and dispatch after
					// already-pending same-cycle events.
					back := Cycle(hc >> 8 % 100)
					if back > s.Now() {
						back = s.Now()
					}
					when = s.Now() - back
				case 2:
					when = s.Now() + Cycle(hc>>8%8) // short: wheel path
				case 3:
					when = s.Now() + Cycle(hc>>8%(wheelSize-1)) + 1
				default:
					// Far future: beyond the wheel horizon, heap path.
					when = s.Now() + wheelSize + Cycle(hc>>8%5000)
				}
				id := nextID
				nextID++
				total++
				s.At(when, fire(id))
			}
		}
	}

	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < roots; i++ {
		id := nextID
		nextID++
		total++
		when := Cycle(rng.Intn(3 * wheelSize))
		s.At(when, fire(id))
	}
	for s.Step() {
	}
	return order
}

// TestDifferentialWheelVsHeap runs the production Engine against the
// reference heap scheduler on many random event programs and requires
// identical dispatch order, event for event.
func TestDifferentialWheelVsHeap(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		got := scriptedRun(NewEngine(), seed, 40, 4000)
		want := scriptedRun(&refSched{}, seed, 40, 4000)
		if len(got) != len(want) {
			t.Fatalf("seed %d: dispatched %d events, reference dispatched %d",
				seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch order diverges at position %d: engine=%d reference=%d",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestAtPastClampReentrantOrder pins the dispatch position of a
// past-clamped event scheduled while its target cycle is already being
// drained: it keeps its fresh sequence number and therefore runs after
// every same-cycle event that was already pending — on both schedulers.
func TestAtPastClampReentrantOrder(t *testing.T) {
	run := func(s sched) []string {
		var order []string
		s.At(100, func() {
			order = append(order, "a")
			// Already-pending same-cycle events b and c are below; this
			// past-scheduled event must clamp to 100 and run after them.
			s.At(10, func() { order = append(order, "past") })
			// A same-cycle event scheduled after the past one: later seq,
			// dispatches last.
			s.At(100, func() { order = append(order, "tail") })
		})
		s.At(100, func() { order = append(order, "b") })
		s.At(100, func() { order = append(order, "c") })
		for s.Step() {
		}
		return order
	}
	want := []string{"a", "b", "c", "past", "tail"}
	for name, s := range map[string]sched{"engine": NewEngine(), "reference": &refSched{}} {
		got := run(s)
		if len(got) != len(want) {
			t.Fatalf("%s: order %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: order %v, want %v", name, got, want)
			}
		}
	}
}

// TestSteadyStateSchedulingAllocs pins the allocation-free steady state of
// the wheel path: once the buckets exist, a schedule/dispatch cycle must
// not allocate.
func TestSteadyStateSchedulingAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm up: materialize the wheel and grow each touched bucket.
	for i := 0; i < 10_000; i++ {
		e.After(Cycle(i%64), fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.After(7, fn)
		e.Step()
	})
	if avg > 0 {
		t.Fatalf("steady-state wheel scheduling allocates %.2f objects/op, want 0", avg)
	}
}

// runBoth runs prog on the production Engine and on the reference
// scheduler and requires identical dispatch order and times. prog
// schedules its roots on s and returns nothing; every event records its
// label and dispatch cycle.
func runBoth(t *testing.T, name string, prog func(s sched, rec func(label string) func())) {
	t.Helper()
	run := func(s sched) []string {
		var order []string
		rec := func(label string) func() {
			return func() { order = append(order, fmt.Sprintf("%s@%d", label, s.Now())) }
		}
		prog(s, rec)
		for s.Step() {
		}
		return order
	}
	got, want := run(NewEngine()), run(&refSched{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: engine order\n%v\nreference order\n%v", name, got, want)
	}
	if len(got) == 0 {
		t.Fatalf("%s: program dispatched nothing", name)
	}
}

// TestEngineWordBoundaries places events on both sides of every 64-bucket
// occupancy word boundary and of the wheel's wrap-around, from clocks that
// put the wheel window at different rotations, including lone events whose
// only neighbours are several empty words away.
func TestEngineWordBoundaries(t *testing.T) {
	for _, base := range []Cycle{0, 1, 63, 64, 65, 511, wheelSize - 1, wheelSize, wheelSize + 37, 5*wheelSize - 64} {
		runBoth(t, fmt.Sprintf("boundaries from %d", base), func(s sched, rec func(string) func()) {
			s.At(base, func() {
				rec("base")()
				for w := Cycle(0); w <= wheelSize; w += 64 {
					for _, d := range []Cycle{w - 1, w, w + 1} {
						if d > w+1 || d == 0 {
							continue
						}
						s.At(base+d, rec(fmt.Sprintf("d%d", d)))
					}
				}
			})
		})
		runBoth(t, fmt.Sprintf("sparse from %d", base), func(s sched, rec func(string) func()) {
			s.At(base, func() {
				rec("base")()
				// One event per word, far apart; each re-arms one bucket
				// before the wrap so the scan must cross empty words.
				for _, d := range []Cycle{63, 64 * 5, wheelSize - 64, wheelSize - 1} {
					d := d
					s.At(base+d, func() {
						rec(fmt.Sprintf("s%d", d))()
						s.At(s.Now()+wheelSize-1, rec(fmt.Sprintf("wrap%d", d)))
					})
				}
			})
		})
	}
}

// TestEngineWheelFarTies pins same-cycle ties between far-heap and wheel
// events: far events were scheduled first, so at equal cycles they
// dispatch before wheel events, in seq order within each source.
func TestEngineWheelFarTies(t *testing.T) {
	for _, target := range []Cycle{wheelSize, wheelSize + 63, wheelSize + 64, 3*wheelSize - 1} {
		runBoth(t, fmt.Sprintf("ties at %d", target), func(s sched, rec func(string) func()) {
			s.At(target, rec("far1"))
			s.At(target+1, rec("far-next"))
			s.At(target, rec("far2"))
			// Once target is within the wheel horizon, more events at
			// target land in the wheel with later seqs.
			s.At(target-wheelSize+1, func() {
				rec("arm")()
				s.At(target, rec("wheel1"))
				s.At(target-1, rec("wheel-before"))
				s.At(target, rec("wheel2"))
			})
			s.At(target-1, func() {
				rec("pre")()
				s.At(target, rec("wheel3"))
			})
		})
	}
}

// TestEngineRunUntilAcrossGaps drives RunUntil limits that fall inside an
// empty stretch of the wheel, then schedules into the skipped region: the
// occupancy scan must restart from the advanced clock.
func TestEngineRunUntilAcrossGaps(t *testing.T) {
	e := NewEngine()
	var order []string
	rec := func(label string) func() {
		return func() { order = append(order, fmt.Sprintf("%s@%d", label, e.Now())) }
	}
	e.At(10, rec("a"))
	e.At(700, rec("b"))
	e.At(5000, rec("far"))
	e.RunUntil(600)
	if e.Now() != 600 {
		t.Fatalf("RunUntil(600) left clock at %d", e.Now())
	}
	e.At(650, rec("c"))
	e.At(600+wheelSize-1, rec("d"))
	e.RunUntil(5000)
	e.Run()
	want := []string{"a@10", "c@650", "b@700", "d@1623", "far@5000"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}
