// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulator components (cores, caches, memory controllers, DRAM
// channels) share one Engine. Components schedule callbacks at absolute or
// relative cycle times; the engine dispatches them in time order, breaking
// ties by scheduling order so that a given seed always produces the same
// simulation. Everything runs on the calling goroutine.
//
// The scheduler is a bucketed time wheel with a binary-heap fallback, built
// for the simulator's hot path: almost every event lands within a few
// hundred cycles of now (DRAM timing, core wakeups), so it goes into a
// per-cycle wheel bucket with one slice append — no comparisons, no
// container/heap interface boxing, and the bucket storage is reused across
// wheel revolutions, so steady-state scheduling allocates nothing. Rare
// far-future events (telemetry epoch pumps, refresh horizons) go to a
// hand-rolled min-heap. An occupancy bitmap (one bit per bucket) lets
// dispatch jump straight to the next nonempty bucket instead of testing
// empty ones one by one. Dispatch merges the two sources by exact
// (when, seq) order, so the hybrid is observably identical — event for
// event — to a single priority queue.
package sim

import "math/bits"

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle = uint64

// wheelBits sizes the near-term scheduling window: events within
// 2^wheelBits cycles of now take the O(1) wheel path. 1024 cycles covers
// every DRAM timing constant and typical core wakeup in the model;
// anything farther (deep-queue completions, epoch pumps at 200k cycles) is
// rare enough for the heap. Measured on the bench suite, a small wheel
// beats a larger one: the bucket working set stays cache-resident.
const (
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

type event struct {
	when Cycle
	seq  uint64 // tie-break: FIFO among same-cycle events
	fn   func()
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now Cycle
	seq uint64

	// buckets[t&wheelMask] holds the events scheduled for cycle t, for t in
	// [now, now+wheelSize), in seq (FIFO) order. heads[i] is the consume
	// index into buckets[i]: drained prefixes are skipped rather than
	// shifted, and a fully drained bucket resets to len 0 keeping its
	// capacity. wheelCount totals the undispatched wheel events.
	buckets    [][]event
	heads      []int
	wheelCount int

	// occ has bit b%64 of word b/64 set exactly while bucket b holds
	// undispatched events: set on append, cleared when the bucket drains.
	occ [wheelSize / 64]uint64

	// scanMin is a lower bound on the earliest occupied wheel cycle: every
	// bucket for a cycle < scanMin is known empty. Dispatch resumes its
	// occupancy scan here instead of rescanning from now each call; At
	// lowers it when an insert lands earlier.
	scanMin Cycle

	// far is a hand-rolled min-heap ordered by (when, seq) for events at
	// least wheelSize cycles out. Events are popped directly from it when
	// due — they never migrate into the wheel — so dispatch is a two-way
	// (when, seq) merge between the wheel and this heap.
	far []event
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of scheduled events not yet dispatched.
func (e *Engine) Pending() int { return e.wheelCount + len(e.far) }

// At schedules fn to run at absolute cycle when. Scheduling in the past
// (when < Now) runs fn at the current cycle instead; the simulation clock
// never moves backwards. A past-clamped event keeps its fresh sequence
// number, so it dispatches after any same-cycle events already pending —
// including events scheduled earlier for the cycle currently being drained.
func (e *Engine) At(when Cycle, fn func()) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	if when-e.now < wheelSize {
		if e.buckets == nil {
			e.buckets = make([][]event, wheelSize)
			e.heads = make([]int, wheelSize)
		}
		b := int(when & wheelMask)
		e.buckets[b] = append(e.buckets[b], event{when: when, seq: e.seq, fn: fn})
		e.occ[b>>6] |= 1 << (b & 63)
		e.wheelCount++
		if when < e.scanMin {
			e.scanMin = when
		}
		return
	}
	e.farPush(event{when: when, seq: e.seq, fn: fn})
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) { e.At(e.now+delay, fn) }

// Step dispatches the earliest pending event, advancing the clock to its
// time. It reports whether an event was dispatched.
func (e *Engine) Step() bool {
	return e.dispatchUpTo(^Cycle(0))
}

// dispatchUpTo dispatches the single earliest pending event if its time is
// <= limit, advancing the clock to it. The earliest event is the (when, seq)
// minimum across the wheel and the far heap.
func (e *Engine) dispatchUpTo(limit Cycle) bool {
	farOK := len(e.far) > 0
	var farWhen Cycle
	if farOK {
		farWhen = e.far[0].when
	}

	if e.wheelCount > 0 {
		// Every event in bucket t&wheelMask has when == t exactly (the
		// wheel only holds [now, now+wheelSize)), so the first occupied
		// bucket at or after max(now, scanMin) is the earliest wheel event,
		// already in seq order.
		t := e.now
		if e.scanMin > t {
			t = e.scanMin
		}
		t = e.nextOccupied(t)
		e.scanMin = t
		b := int(t & wheelMask)
		bucket := e.buckets[b]
		switch {
		case farOK && farWhen < t:
			// A far event is due strictly before the next wheel event.
		case t > limit:
			return false
		case farOK && farWhen == t && e.far[0].seq < bucket[e.heads[b]].seq:
			// Same-cycle tie: the far event was scheduled first.
		default:
			h := e.heads[b]
			ev := bucket[h]
			bucket[h] = event{} // release the fn reference
			if h+1 == len(bucket) {
				e.buckets[b] = bucket[:0]
				e.heads[b] = 0
				e.occ[b>>6] &^= 1 << (b & 63)
			} else {
				e.heads[b] = h + 1
			}
			e.wheelCount--
			e.now = ev.when
			ev.fn()
			return true
		}
	}
	if !farOK || farWhen > limit {
		return false
	}
	ev := e.farPop()
	e.now = ev.when
	ev.fn()
	return true
}

// nextOccupied returns the cycle of the earliest occupied wheel bucket at
// or after t. The caller guarantees the wheel is nonempty and that every
// bucket for a cycle in [now, t) is empty, so the walk over the occupancy
// words ends within one revolution, at a cycle below now+wheelSize.
func (e *Engine) nextOccupied(t Cycle) Cycle {
	for {
		b := int(t & wheelMask)
		if w := e.occ[b>>6] >> (b & 63); w != 0 {
			return t + Cycle(bits.TrailingZeros64(w))
		}
		t += Cycle(64 - b&63)
	}
}

// Run dispatches events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with time <= limit. The clock ends at the time
// of the last dispatched event (or limit if the next event lies beyond it).
func (e *Engine) RunUntil(limit Cycle) {
	for e.dispatchUpTo(limit) {
	}
	if e.now < limit {
		e.now = limit
	}
}

// RunWhile dispatches events until cond reports false or no events remain.
// cond is checked before every event dispatch.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// farPush inserts ev into the far heap (sift-up on a plain slice; no
// interface boxing, unlike container/heap).
func (e *Engine) farPush(ev event) {
	e.far = append(e.far, ev)
	i := len(e.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(e.far[i], e.far[p]) {
			break
		}
		e.far[i], e.far[p] = e.far[p], e.far[i]
		i = p
	}
}

// farPop removes and returns the (when, seq) minimum of the far heap.
func (e *Engine) farPop() event {
	top := e.far[0]
	n := len(e.far) - 1
	e.far[0] = e.far[n]
	e.far[n] = event{} // release the fn reference
	e.far = e.far[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && eventLess(e.far[r], e.far[l]) {
			min = r
		}
		if !eventLess(e.far[min], e.far[i]) {
			break
		}
		e.far[i], e.far[min] = e.far[min], e.far[i]
		i = min
	}
	return top
}

func eventLess(a, b event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}
