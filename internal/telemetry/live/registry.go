package live

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"silcfm/internal/flightrec"
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
)

// runState is the latest published snapshot of one run. All fields are
// value copies taken on the simulation goroutine; readers only ever see
// them under the registry mutex.
type runState struct {
	id      string
	started time.Time

	cycle       uint64
	mem         stats.Memory
	gauges      []mem.Gauge
	lat         []stats.PathSummary
	queueNM     int
	queueFM     int
	peakQueueNM int
	peakQueueFM int
	done, total uint64

	// dram holds the latest per-device DRAM introspection slice ([nm, fm]).
	// Entries are value copies built on the sim goroutine and never mutated
	// after publish, so readers may share the slice.
	dram []DramDeviceStatus

	// exemplars is the latest tail-exemplar snapshot (path-grouped,
	// worst-first). The recorder hands over a freshly built slice each
	// epoch, so the registry stores it without copying and readers may
	// share it.
	exemplars []exemplar.Exemplar

	open           []health.Incident
	finished       bool
	totalIncidents int

	// finalElapsed/finalRate freeze the run's wall time and throughput at
	// Done (computed from the last published cycle), so finished runs keep
	// reporting their real rate instead of zero.
	finalElapsed float64
	finalRate    float64
}

// Registry is the HTTP-free fleet store at the center of the observability
// hub: every run registers through Run, and harness.Run publishes one
// snapshot per telemetry epoch through the returned handle and marks the
// run complete with it. Readers — the HTTP Server, a sweep engine, a job
// API — take deterministic id-ordered snapshots with Runs and Aggregate,
// or stream transitions with Subscribe.
//
// The publish path never blocks: snapshots are value copies taken under a
// short mutex, and events fan out to subscribers through bounded queues
// that drop-and-count rather than stall the simulation goroutine.
type Registry struct {
	mu      sync.Mutex
	runs    map[string]*runState
	subs    map[*Subscriber]struct{}
	seq     uint64 // monotone event sequence, stamped under mu
	dropped uint64 // drops accumulated from departed subscribers
	closed  bool

	// bundles is the hub's postmortem store: finalized flight-recorder
	// bundles in arrival order, bounded by maxStoredBundles (oldest drop
	// first). Bundles are immutable, so entries share the pointer the
	// recorder emitted.
	bundles        []bundleEntry
	bundleSeq      int
	bundlesDropped uint64
}

// maxStoredBundles bounds the hub-wide postmortem store.
const maxStoredBundles = 256

// bundleEntry pairs a stored bundle with the hub run id it arrived under
// and its registry-assigned stable id.
type bundleEntry struct {
	id  int
	run string
	b   *flightrec.Bundle
}

// IncidentRef is one row of the /api/incidents listing: a bundle summary
// plus the path serving the full evidence.
type IncidentRef struct {
	// ID is the registry-assigned stable bundle id (monotone per hub).
	ID int `json:"id"`
	// Run is the hub run id the bundle arrived under; Source is the label
	// the recorder itself stamped ("<scheme>/<workload>").
	Run        string `json:"run"`
	Source     string `json:"source,omitempty"`
	Trigger    string `json:"trigger"`
	FirstEpoch uint64 `json:"first_epoch"`
	LastEpoch  uint64 `json:"last_epoch"`
	PreEpochs  int    `json:"pre_epochs"`
	Epochs     int    `json:"epochs"`
	Events     int    `json:"events"`
	Incidents  int    `json:"incidents"`
	Forced     bool   `json:"forced,omitempty"`
	// Path serves the full bundle JSON.
	Path string `json:"path"`
}

// AddBundle stores one finalized postmortem bundle under the run. Called
// from the simulation goroutine; the bundle must be immutable
// (flight-recorder bundles are). Nil-safe on both receiver and bundle.
func (r *Run) AddBundle(b *flightrec.Bundle) {
	if r == nil || b == nil {
		return
	}
	g := r.g
	g.mu.Lock()
	defer g.mu.Unlock()
	g.bundles = append(g.bundles, bundleEntry{id: g.bundleSeq, run: r.id, b: b})
	g.bundleSeq++
	if len(g.bundles) > maxStoredBundles {
		over := len(g.bundles) - maxStoredBundles
		g.bundles = append(g.bundles[:0:0], g.bundles[over:]...)
		g.bundlesDropped += uint64(over)
	}
}

// Incidents lists the stored bundles in arrival order.
func (g *Registry) Incidents() []IncidentRef {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]IncidentRef, 0, len(g.bundles))
	for _, e := range g.bundles {
		out = append(out, IncidentRef{
			ID:         e.id,
			Run:        e.run,
			Source:     e.b.Run,
			Trigger:    e.b.Trigger,
			FirstEpoch: e.b.FirstEpoch,
			LastEpoch:  e.b.LastEpoch,
			PreEpochs:  e.b.PreEpochs,
			Epochs:     len(e.b.Epochs),
			Events:     len(e.b.Events),
			Incidents:  len(e.b.Incidents),
			Forced:     e.b.Forced,
			Path:       fmt.Sprintf("/api/incidents/%d", e.id),
		})
	}
	return out
}

// Bundle returns the stored bundle with the given registry id, or nil when
// it never existed or has been dropped by the store bound.
func (g *Registry) Bundle(id int) *flightrec.Bundle {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range g.bundles {
		if e.id == id {
			return e.b
		}
	}
	return nil
}

// SetExemplars replaces the run's tail-exemplar snapshot. Called from the
// simulation goroutine; the slice must not be mutated afterwards (the
// recorder's Snapshot builds a fresh one each call). Nil-safe.
func (r *Run) SetExemplars(es []exemplar.Exemplar) {
	if r == nil {
		return
	}
	r.g.mu.Lock()
	defer r.g.mu.Unlock()
	if rs := r.g.runs[r.id]; rs != nil {
		rs.exemplars = es
	}
}

// ExemplarSet is one run's slice of the /api/exemplars body.
type ExemplarSet struct {
	Run       string              `json:"run"`
	Exemplars []exemplar.Exemplar `json:"exemplars"`
}

// Exemplars returns every run's latest tail-exemplar snapshot in id order;
// runs that have not published a snapshot are omitted.
func (g *Registry) Exemplars() []ExemplarSet {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []ExemplarSet
	for _, rs := range g.sortedLocked() {
		if rs.exemplars == nil {
			continue
		}
		out = append(out, ExemplarSet{Run: rs.id, Exemplars: rs.exemplars})
	}
	return out
}

// NewRegistry returns an empty run registry.
func NewRegistry() *Registry {
	return &Registry{
		runs: map[string]*runState{},
		subs: map[*Subscriber]struct{}{},
	}
}

// RunStatus is one run's public snapshot: the /api/runs row and the basis
// of /progress and the fleet aggregates.
type RunStatus struct {
	Run        string  `json:"run"`
	State      string  `json:"state"` // "running" or "done"
	Cycle      uint64  `json:"cycle"`
	InstrDone  uint64  `json:"instr_done"`
	InstrTotal uint64  `json:"instr_total"`
	Pct        float64 `json:"pct"`
	McycPerSec float64 `json:"mcyc_per_sec"`
	EtaSeconds float64 `json:"eta_seconds"`
	// ElapsedSeconds is host wall time since Run; frozen at Done so a
	// finished run reports the wall time of the whole run.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// AccessRate is the cumulative NM service fraction (paper Eq. 1).
	AccessRate     float64 `json:"access_rate"`
	QueueNM        int     `json:"queue_nm"`
	QueueFM        int     `json:"queue_fm"`
	OpenIncidents  int     `json:"open_incidents"`
	TotalIncidents int     `json:"total_incidents"`
	// Dram is the latest per-device DRAM introspection slice ([nm, fm]);
	// absent until the run publishes its first epoch.
	Dram []DramDeviceStatus `json:"dram,omitempty"`
}

// DramDeviceStatus is one DRAM device's epoch-windowed introspection view:
// headline row-locality/bus figures plus the per-bank heatmap the dashboard
// renders. BankAccesses/BankConflicts are epoch deltas flattened
// channel-major (index = channel*BanksPerChannel + bank).
type DramDeviceStatus struct {
	Device          string  `json:"device"` // "nm" or "fm"
	Channels        int     `json:"channels"`
	BanksPerChannel int     `json:"banks_per_channel"`
	RowHitRate      float64 `json:"row_hit_rate"`
	// BusUtil is the epoch's data-bus busy share; bursts booked at issue can
	// extend past the epoch boundary, so it may slightly exceed 1.
	BusUtil       float64  `json:"bus_util"`
	BankImbalance float64  `json:"bank_imbalance"`
	RowConflicts  uint64   `json:"row_conflicts"`
	BankAccesses  []uint64 `json:"bank_accesses"`
	BankConflicts []uint64 `json:"bank_conflicts"`
}

// dramStatus copies one device's sampler-owned epoch buffers into an
// immutable snapshot (the sampler reuses its buffers every epoch, so the
// bank arrays must be copied before the callback returns).
func dramStatus(dev string, de *telemetry.DramDeviceEpoch, hitRate, busUtil, imbalance float64, conflicts uint64) DramDeviceStatus {
	return DramDeviceStatus{
		Device:          dev,
		Channels:        de.Channels,
		BanksPerChannel: de.BanksPerChannel,
		RowHitRate:      hitRate,
		BusUtil:         busUtil,
		BankImbalance:   imbalance,
		RowConflicts:    conflicts,
		BankAccesses:    append([]uint64(nil), de.BankAccesses...),
		BankConflicts:   append([]uint64(nil), de.BankConflicts...),
	}
}

// Fleet is the cross-run aggregate view: the dashboard's headline tiles
// and the silcfm_fleet_* metric families.
type Fleet struct {
	Runs          int `json:"runs"`
	RunsDone      int `json:"runs_done"`
	OpenIncidents int `json:"open_incidents"`
	// TotalIncidents sums finished runs' closed-incident counts plus
	// running runs' currently-open counts.
	TotalIncidents int `json:"total_incidents"`
	// McycPerSec is the aggregate simulation throughput of the running
	// runs (finished runs no longer contribute).
	McycPerSec float64 `json:"mcyc_per_sec"`
	// EtaSeconds is the slowest running run's wall-clock ETA — when the
	// whole fleet should be done if every run stays linear.
	EtaSeconds float64 `json:"eta_seconds"`
	// Subscribers counts the attached /events streams; DroppedEvents
	// counts frames dropped across all subscribers (bounded queues drop
	// rather than block the simulation).
	Subscribers   int    `json:"subscribers"`
	DroppedEvents uint64 `json:"dropped_events"`
}

// Run is one run's attachment to the hub, installed as harness.Spec.Live:
// harness.Run publishes each epoch, streams each finalized postmortem
// bundle and each epoch's tail-exemplar snapshot, and marks the run done
// through it. Every method is nil-safe, so a run without a hub carries a
// nil *Run.
type Run struct {
	g  *Registry
	id string
}

// Run registers run id and returns its hub handle. Re-registering an id
// (bench reps) resets its snapshot and drops the bundles stored under it,
// so a repeated run does not list its incidents twice. Nil-safe: a nil
// registry returns a nil handle.
func (g *Registry) Run(id string) *Run {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	kept := g.bundles[:0]
	for _, e := range g.bundles {
		if e.run != id {
			kept = append(kept, e)
		}
	}
	g.bundles = kept
	g.runs[id] = &runState{id: id, started: time.Now()}
	g.emitLocked(Event{Type: EventRunStart, Run: id})
	g.mu.Unlock()
	return &Run{g: g, id: id}
}

// Publish records one epoch's state and health status and streams it to
// the subscribers. Called on the simulation goroutine at the epoch
// boundary; st's referenced state is only valid during the call.
func (r *Run) Publish(st telemetry.EpochState, hs health.Status) {
	if r == nil {
		return
	}
	g, id := r.g, r.id
	// Reduce the live state to value copies before taking the lock:
	// summarizing histograms is the expensive part and needs no mutex
	// (it runs on the sim goroutine that owns the state).
	lat := st.Lat.Summaries()
	gauges := append([]mem.Gauge(nil), st.Sample.Gauges...)
	memCopy := *st.Mem
	openCopy := append([]health.Incident(nil), hs.Open...)
	var dramCopy []DramDeviceStatus
	if st.Dram != nil {
		sm := st.Sample
		dramCopy = []DramDeviceStatus{
			dramStatus("nm", &st.Dram.NM, sm.RowHitRateNM, sm.BusUtilNM, sm.BankImbalanceNM, sm.RowConflictsNM),
			dramStatus("fm", &st.Dram.FM, sm.RowHitRateFM, sm.BusUtilFM, sm.BankImbalanceFM, sm.RowConflictsFM),
		}
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	rs := g.runs[id]
	if rs == nil || rs.finished {
		return
	}
	rs.cycle = st.Sample.Cycle
	rs.mem = memCopy
	rs.gauges = gauges
	rs.lat = lat
	rs.queueNM, rs.queueFM = st.Sample.QueueNM, st.Sample.QueueFM
	rs.peakQueueNM, rs.peakQueueFM = st.Sample.PeakQueueNM, st.Sample.PeakQueueFM
	rs.done, rs.total = st.Done, st.Total
	rs.dram = dramCopy
	rs.open = openCopy

	if len(g.subs) == 0 {
		return
	}
	for i := range hs.Opened {
		in := hs.Opened[i]
		g.emitLocked(Event{Type: EventIncidentOpen, Run: id, Incident: &in})
	}
	for i := range hs.Closed {
		in := hs.Closed[i]
		g.emitLocked(Event{Type: EventIncidentClose, Run: id, Incident: &in})
	}
	ep := EpochEvent{
		Cycle:         st.Sample.Cycle,
		InstrDone:     st.Done,
		InstrTotal:    st.Total,
		Pct:           pct(st.Done, st.Total),
		AccessRate:    st.Sample.AccessRate,
		QueueNM:       st.Sample.QueueNM,
		QueueFM:       st.Sample.QueueFM,
		PeakQueueNM:   st.Sample.PeakQueueNM,
		PeakQueueFM:   st.Sample.PeakQueueFM,
		McycPerSec:    stats.Ratio(float64(rs.cycle), time.Since(rs.started).Seconds()) / 1e6,
		OpenIncidents: len(openCopy),
		Dram:          dramCopy,
	}
	g.emitLocked(Event{Type: EventEpoch, Run: id, Epoch: &ep})
}

// Done marks the run complete with its final incident list; open
// incidents clear (the run can no longer be unhealthy), and the last
// published cycle is frozen into a final elapsed/throughput figure so
// /progress and /api/runs keep reporting it.
func (r *Run) Done(final []health.Incident) {
	if r == nil {
		return
	}
	g, id := r.g, r.id
	g.mu.Lock()
	defer g.mu.Unlock()
	rs := g.runs[id]
	if !rs.finished {
		rs.finalElapsed = time.Since(rs.started).Seconds()
		rs.finalRate = stats.Ratio(float64(rs.cycle), rs.finalElapsed) / 1e6
	}
	rs.finished = true
	rs.open = nil
	rs.totalIncidents = len(final)
	g.emitLocked(Event{Type: EventRunDone, Run: id})
}

// Runs returns every run's status in id order (deterministic reads).
func (g *Registry) Runs() []RunStatus {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]RunStatus, 0, len(g.runs))
	for _, rs := range g.sortedLocked() {
		out = append(out, rs.status())
	}
	return out
}

// Aggregate reduces the fleet to its headline numbers.
func (g *Registry) Aggregate() Fleet {
	if g == nil {
		return Fleet{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.aggregateLocked()
}

func (g *Registry) aggregateLocked() Fleet {
	fl := Fleet{Subscribers: len(g.subs), DroppedEvents: g.dropped}
	for sub := range g.subs {
		fl.DroppedEvents += sub.dropped.Load()
	}
	for _, rs := range g.runs {
		fl.Runs++
		if rs.finished {
			fl.RunsDone++
			fl.TotalIncidents += rs.totalIncidents
			continue
		}
		fl.OpenIncidents += len(rs.open)
		fl.TotalIncidents += len(rs.open)
		st := rs.status()
		fl.McycPerSec += st.McycPerSec
		if st.EtaSeconds > fl.EtaSeconds {
			fl.EtaSeconds = st.EtaSeconds
		}
	}
	return fl
}

// status reduces a runState to its public snapshot. Caller holds the
// registry mutex.
func (rs *runState) status() RunStatus {
	st := RunStatus{
		Run:            rs.id,
		State:          "running",
		Cycle:          rs.cycle,
		InstrDone:      rs.done,
		InstrTotal:     rs.total,
		Pct:            pct(rs.done, rs.total),
		AccessRate:     rs.mem.AccessRate(),
		QueueNM:        rs.queueNM,
		QueueFM:        rs.queueFM,
		OpenIncidents:  len(rs.open),
		TotalIncidents: rs.totalIncidents,
		Dram:           rs.dram,
	}
	if rs.finished {
		st.State = "done"
		st.ElapsedSeconds = rs.finalElapsed
		st.McycPerSec = rs.finalRate
		return st
	}
	elapsed := time.Since(rs.started).Seconds()
	st.ElapsedSeconds = elapsed
	st.McycPerSec = stats.Ratio(float64(rs.cycle), elapsed) / 1e6
	if rs.done > 0 && rs.total > rs.done {
		st.EtaSeconds = elapsed * float64(rs.total-rs.done) / float64(rs.done)
	}
	return st
}

// sortedLocked returns the run snapshots in id order. Caller holds g.mu.
func (g *Registry) sortedLocked() []*runState {
	out := make([]*runState, 0, len(g.runs))
	for _, rs := range g.runs {
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func pct(done, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(done) / float64(total)
}
