// Package exemplar is the tail-latency exemplar recorder: an always-on,
// bounded capture layer that keeps the complete life of the K slowest
// demand accesses per service path (stats.DemandPath). Aggregates answer
// "how bad is the tail"; exemplars answer "show me one concrete p99.9
// access and its life story" — the full span decomposition stamped by
// attribution plus point-in-time context sampled at issue and completion
// (device location, lock state, DRAM row/bank state, scheme gauges, open
// incidents).
//
// Like every observability layer in this repo the recorder is provably
// inert: it only copies counters into preallocated reservoirs on the
// simulation goroutine, never schedules events or touches simulation state,
// so enabling it cannot change Cycles, any stats.Memory counter, or the
// incident stream. Reservoirs are counted, never grown — K fixed-size slots
// per path with per-slot reusable gauge buffers — so the steady-state
// admission path allocates nothing. For a fixed seed its output is byte-
// deterministic: admission uses a total order (latency, then issue cycle,
// then completion sequence) with no maps in any ordered walk.
package exemplar

import (
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
)

// k is the per-path reservoir depth.
const k = 16

// Config selects whether harness.Run attaches the recorder; the zero value
// attaches it.
type Config struct {
	// Disabled turns the recorder off entirely.
	Disabled bool
}

// PointContext is the instantaneous system state sampled around one demand
// access: at issue (when the controller dispatched the demand to a device)
// and at completion (when the data returned). All queries behind it are
// pure and O(1).
type PointContext struct {
	// Cycle is when the context was sampled.
	Cycle uint64 `json:"cycle"`
	// Level/DevAddr locate the subblock the demand targeted at sample time
	// (the src side for swaps; the current Locate result at completion).
	Level   string `json:"level"`
	DevAddr uint64 `json:"dev_addr"`
	// Locked/LockHome report the scheme's lock state for the accessed block
	// (mem.LockProbe; false/false when the scheme has no locking).
	Locked   bool `json:"locked"`
	LockHome bool `json:"lock_home"`
	// RowOpen reports whether the target DRAM bank had the demand's row
	// open; BankLoad is the number of requests queued for that bank.
	RowOpen  bool `json:"row_open"`
	BankLoad int  `json:"bank_load"`
}

// SpanCycles is one named component of an exemplar's latency.
type SpanCycles struct {
	Span   string `json:"span"`
	Cycles uint64 `json:"cycles"`
}

// Exemplar is the JSON-friendly record of one captured worst-K access.
// Field order is fixed, so JSONL output is byte-deterministic.
type Exemplar struct {
	Path string `json:"path"`
	// Seq is the monotone demand-completion sequence number, the final
	// determinism tie-break.
	Seq      uint64 `json:"seq"`
	Core     int    `json:"core"`
	PC       uint64 `json:"pc"`
	PAddr    uint64 `json:"paddr"`
	Block    uint64 `json:"block"`
	Subblock uint   `json:"subblock"`
	Write    bool   `json:"write"`
	// StartCycle is when the access entered the memory system;
	// CompleteCycle when its demand data returned. Latency is their
	// difference and exactly equals the sum of Spans (the SpanOther
	// residual is stamped before completion observers run).
	StartCycle    uint64 `json:"start_cycle"`
	CompleteCycle uint64 `json:"complete_cycle"`
	Latency       uint64 `json:"latency"`
	// Spans is the full attribution decomposition in stats.Span order;
	// zero spans are included so waterfalls line up across exemplars.
	Spans [stats.NumSpans]SpanCycles `json:"spans"`
	// Issue is absent for accesses classified without passing through
	// ServiceAccess/SwapAccess (CAMEO's combined remap-read completions).
	Issue    *PointContext `json:"issue,omitempty"`
	Complete PointContext  `json:"complete"`
	// Epoch context as of the last telemetry epoch boundary before
	// completion (zero-valued before the first boundary).
	Epoch         uint64      `json:"epoch"`
	OpenIncidents []string    `json:"open_incidents,omitempty"`
	Gauges        []mem.Gauge `json:"gauges,omitempty"`
}

// pointCtx is the compact in-reservoir form of a PointContext.
type pointCtx struct {
	cycle    uint64
	loc      mem.Location
	locked   bool
	lockHome bool
	rowOpen  bool
	bankLoad int
}

// slot is one reservoir entry. The openKinds and gauges buffers are
// allocated once per slot and reused across evictions, so steady-state
// admission never allocates.
type slot struct {
	seq      uint64
	core     int
	pc       uint64
	paddr    uint64
	write    bool
	start    uint64
	complete uint64
	lat      uint64
	spans    [stats.NumSpans]uint64
	hasIssue bool
	issue    pointCtx
	done     pointCtx
	epoch    uint64
	open     []bool // health.Kinds() order
	gauges   []mem.Gauge
}

// reservoir is one path's fixed-capacity worst-K min-heap, keyed by the
// eviction order: the root is the entry closest to eviction (lowest
// latency; among ties the latest issue, then the latest completion).
type reservoir struct {
	slots []slot
	n     int
}

// evictsBefore reports whether a is evicted before b (a is "worse" to
// keep). Total order: latency asc, start cycle desc, seq desc.
func evictsBefore(a, b *slot) bool {
	if a.lat != b.lat {
		return a.lat < b.lat
	}
	if a.start != b.start {
		return a.start > b.start
	}
	return a.seq > b.seq
}

func (rv *reservoir) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !evictsBefore(&rv.slots[i], &rv.slots[p]) {
			return
		}
		rv.slots[i], rv.slots[p] = rv.slots[p], rv.slots[i]
		i = p
	}
}

func (rv *reservoir) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < rv.n && evictsBefore(&rv.slots[l], &rv.slots[m]) {
			m = l
		}
		if r < rv.n && evictsBefore(&rv.slots[r], &rv.slots[m]) {
			m = r
		}
		if m == i {
			return
		}
		rv.slots[i], rv.slots[m] = rv.slots[m], rv.slots[i]
		i = m
	}
}

// Recorder is one run's exemplar recorder. It implements mem.Observer for
// the demand issue/completion feed, and is fed epoch state + health status
// by harness.Run's epoch sink (ObserveEpoch). Not safe for concurrent
// use: everything runs on the simulation goroutine.
type Recorder struct {
	sys *mem.System
	ctl mem.Controller
	lp  mem.LockProbe // ctl's optional lock probe, resolved once

	kinds []string // health.Kinds(), index-aligned with slot.open

	res [stats.NumDemandPaths]reservoir
	seq uint64

	// inflight holds issue-time context keyed by the access pointer
	// (pooled accesses are stable for the life of one demand). Entries
	// are removed at completion; the map reaches the peak in-flight count
	// and then stops growing, so steady state allocates nothing.
	inflight map[*mem.Access]pointCtx

	// Epoch context as of the last ObserveEpoch: copied into slots at
	// admission via per-slot buffers.
	epoch       uint64
	openNow     []bool
	epochGauges []mem.Gauge
}

// New builds a recorder over sys. ctl, when non-nil, provides completion-time
// Locate and (if it implements mem.LockProbe) lock-state sampling.
// Returns nil when cfg.Disabled is set; all Recorder methods are nil-safe.
func New(cfg Config, sys *mem.System, ctl mem.Controller) *Recorder {
	if cfg.Disabled {
		return nil
	}
	r := &Recorder{
		sys:      sys,
		ctl:      ctl,
		kinds:    health.Kinds(),
		inflight: make(map[*mem.Access]pointCtx),
	}
	r.lp, _ = ctl.(mem.LockProbe)
	r.openNow = make([]bool, len(r.kinds))
	for p := range r.res {
		r.res[p].slots = make([]slot, k)
		for i := range r.res[p].slots {
			r.res[p].slots[i].open = make([]bool, len(r.kinds))
		}
	}
	return r
}

// pointAt samples the instantaneous context of flat address pa serviced at
// loc at cycle now: lock state plus the target bank's open-row and
// queue-load state.
func (r *Recorder) pointAt(pa uint64, loc mem.Location, now uint64) pointCtx {
	dev := r.sys.Device(loc.Level)
	p := pointCtx{
		cycle:    now,
		loc:      loc,
		rowOpen:  dev.RowOpen(loc.DevAddr),
		bankLoad: dev.BankLoad(loc.DevAddr),
	}
	if r.lp != nil {
		p.locked, p.lockHome = r.lp.LockState(pa)
	}
	return p
}

// Observe implements mem.Observer. EvIssue captures issue-time context for
// a demand dispatched through ServiceAccess/SwapAccess, before any
// synchronous completion can fire; EvComplete considers the completed
// access for its path's reservoir.
func (r *Recorder) Observe(e mem.Event) {
	if r == nil {
		return
	}
	switch e.Kind {
	case mem.EvIssue:
		r.inflight[e.Access] = r.pointAt(e.Access.PAddr, e.Src, e.Cycle)
	case mem.EvComplete:
		r.complete(e.Access, e.Path, e.Lat, e.Cycle)
	}
}

// complete admits access a, completed under path at cycle now with latency
// lat, if it outranks its reservoir's eviction root. The access's spans are
// final here (the SpanOther residual is stamped before completion
// observers run), so the captured span sum equals lat exactly.
func (r *Recorder) complete(a *mem.Access, path stats.DemandPath, lat, now uint64) {
	r.seq++
	ic, hasIssue := r.inflight[a]
	if hasIssue {
		delete(r.inflight, a)
	}
	if path < 0 || path >= stats.NumDemandPaths {
		return
	}
	rv := &r.res[path]
	if rv.n < len(rv.slots) {
		s := &rv.slots[rv.n]
		r.fill(s, a, lat, now, ic, hasIssue)
		rv.n++
		rv.siftUp(rv.n - 1)
		return
	}
	// Full reservoir: admit only if the candidate outranks the eviction
	// root. The candidate's seq is always the largest, so on a full
	// latency+issue tie the incumbent keeps its slot (first-come-keeps).
	root := &rv.slots[0]
	if lat < root.lat || (lat == root.lat && a.Start >= root.start) {
		return
	}
	r.fill(root, a, lat, now, ic, hasIssue)
	rv.siftDown(0)
}

// fill overwrites s with the access completed at cycle now, reusing s's
// buffers.
func (r *Recorder) fill(s *slot, a *mem.Access, lat, now uint64, ic pointCtx, hasIssue bool) {
	s.seq = r.seq
	s.core, s.pc, s.paddr, s.write = a.Core, a.PC, a.PAddr, a.Write
	s.start = a.Start
	s.complete = now
	s.lat = lat
	s.spans = a.Spans()
	s.hasIssue = hasIssue
	s.issue = ic
	loc := r.sys.HomeLocation(a.PAddr)
	if r.ctl != nil {
		loc = r.ctl.Locate(a.PAddr)
	}
	s.done = r.pointAt(a.PAddr, loc, now)
	s.epoch = r.epoch
	copy(s.open, r.openNow)
	s.gauges = append(s.gauges[:0], r.epochGauges...)
}

// ObserveEpoch feeds one telemetry epoch boundary: the recorder keeps the
// epoch index, scheme gauges and open incident kinds as the context
// stamped onto subsequently admitted exemplars. Called by harness.Run's
// epoch sink after the detector has stepped.
func (r *Recorder) ObserveEpoch(st telemetry.EpochState, hs health.Status) {
	if r == nil || st.Sample == nil {
		return
	}
	r.epoch = st.Sample.Epoch
	r.epochGauges = append(r.epochGauges[:0], st.Sample.Gauges...)
	for i := range r.openNow {
		r.openNow[i] = false
	}
	for i := range hs.Open {
		if k, ok := health.KindIndex(hs.Open[i].Kind); ok {
			r.openNow[k] = true
		}
	}
}

// exemplarOf converts a reservoir slot into its JSON form (fresh copies:
// snapshots outlive the reservoir).
func (r *Recorder) exemplarOf(s *slot, path stats.DemandPath) Exemplar {
	e := Exemplar{
		Path:          path.String(),
		Seq:           s.seq,
		Core:          s.core,
		PC:            s.pc,
		PAddr:         s.paddr,
		Block:         uint64(memunits.BlockOf(s.paddr)),
		Subblock:      memunits.SubblockIndex(s.paddr),
		Write:         s.write,
		StartCycle:    s.start,
		CompleteCycle: s.complete,
		Latency:       s.lat,
		Complete:      jsonPoint(&s.done),
		Epoch:         s.epoch,
	}
	for sp := stats.Span(0); sp < stats.NumSpans; sp++ {
		e.Spans[sp] = SpanCycles{Span: sp.String(), Cycles: s.spans[sp]}
	}
	if s.hasIssue {
		p := jsonPoint(&s.issue)
		e.Issue = &p
	}
	for i, open := range s.open {
		if open {
			e.OpenIncidents = append(e.OpenIncidents, r.kinds[i])
		}
	}
	if len(s.gauges) > 0 {
		e.Gauges = append([]mem.Gauge(nil), s.gauges...)
	}
	return e
}

func jsonPoint(p *pointCtx) PointContext {
	return PointContext{
		Cycle:    p.cycle,
		Level:    p.loc.Level.String(),
		DevAddr:  p.loc.DevAddr,
		Locked:   p.locked,
		LockHome: p.lockHome,
		RowOpen:  p.rowOpen,
		BankLoad: p.bankLoad,
	}
}

// Snapshot returns every captured exemplar, grouped by path in
// stats.DemandPath order and worst-first within each path (latency desc,
// start cycle asc, seq asc). The result is freshly allocated and immutable;
// safe to retain. Allocation here is fine — snapshots happen at epoch
// boundaries, incident opens and end of run, never on the admission path.
func (r *Recorder) Snapshot() []Exemplar {
	if r == nil {
		return nil
	}
	var total int
	for p := range r.res {
		total += r.res[p].n
	}
	out := make([]Exemplar, 0, total)
	for p := stats.DemandPath(0); p < stats.NumDemandPaths; p++ {
		rv := &r.res[p]
		start := len(out)
		for i := 0; i < rv.n; i++ {
			out = append(out, r.exemplarOf(&rv.slots[i], p))
		}
		sortWorstFirst(out[start:])
	}
	return out
}

// sortWorstFirst insertion-sorts exemplars by latency desc, start cycle
// asc, seq asc (the reservoirs are tiny).
func sortWorstFirst(es []Exemplar) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i
		for j > 0 && rankedBelow(&es[j-1], &e) {
			es[j] = es[j-1]
			j--
		}
		es[j] = e
	}
}

// rankedBelow reports whether a ranks below b in the worst-first order.
func rankedBelow(a, b *Exemplar) bool {
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	if a.StartCycle != b.StartCycle {
		return a.StartCycle > b.StartCycle
	}
	return a.Seq > b.Seq
}

// Finish returns the final snapshot. Call once, after telemetry Finish has
// pumped the final partial epoch.
func (r *Recorder) Finish() []Exemplar {
	if r == nil {
		return nil
	}
	return r.Snapshot()
}
