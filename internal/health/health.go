// Package health is an online anomaly detector for simulation runs: it
// consumes the per-epoch delta stream the telemetry sampler already
// produces (telemetry.Sample, including scheme gauges and the DRAM queue
// high-water marks) and reduces it to structured incident records for the
// windowed pathologies the paper warns about — swap thrashing that
// bandwidth bypassing is meant to suppress (SILC-FM §III-E), bypass-
// governor oscillation around the machine's Eq. 1 access-rate target,
// lock/unlock
// churn, memory-queue saturation, and way/location-predictor collapse.
//
// The detector is pure arithmetic over sampled deltas: it never touches
// the engine or any counter, so enabling it cannot change Cycles or any
// stats.Memory field, and for a fixed seed its incident records are
// byte-deterministic (fixed struct field order, no maps, no wall clock).
package health

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"silcfm/internal/config"
	"silcfm/internal/memunits"
	"silcfm/internal/telemetry"
)

// Incident kinds, in detector evaluation order.
const (
	KindSwapThrash        = "swap-thrash"
	KindBypassOscillation = "bypass-oscillation"
	KindLockChurn         = "lock-churn"
	KindQueueSaturation   = "queue-saturation"
	KindPredictorCollapse = "predictor-collapse"
	KindRowThrash         = "row-thrash"
)

// kinds fixes the evaluation (and reporting) order of the detectors.
var kinds = [...]string{
	KindSwapThrash, KindBypassOscillation, KindLockChurn,
	KindQueueSaturation, KindPredictorCollapse, KindRowThrash,
}

const numKinds = len(kinds)

// Config selects whether harness.Run attaches the detector; the zero value
// attaches it.
type Config struct {
	// Disabled turns the detector off entirely.
	Disabled bool
}

// The detector's windows and thresholds. The two machine-dependent inputs,
// the bypass target and the device queue capacities, come from the
// config.Machine the detector watches (see NewDetector).
const (
	// windowEpochs is the sliding-window length every condition is
	// evaluated over.
	windowEpochs = 8
	// closeAfter is how many consecutive quiet epochs close an open
	// incident; a brief dip does not split one pathology into two records.
	closeAfter = 2

	// swap-thrash fires when the window's swapped bytes (SwapsIn+SwapsOut
	// subblocks) exceed swapThrashRatio times its demand bytes (the scheme
	// moved more data than it served), on windows with at least
	// minWindowMisses LLC misses.
	swapThrashRatio = 1.0
	minWindowMisses = 64

	// bypass-oscillation fires at minCrossings crossings of the machine's
	// bypass target per window; the scheme's bypass_toggles gauge, when
	// present, counts toggles directly and uses the same trigger.
	minCrossings = 4

	// lock-churn fires when min(locks, unlocks) over the window reaches
	// lockChurnMin: blocks being locked and promptly unlocked instead of
	// staying resident.
	lockChurnMin = 16

	// queue-saturation fires when a device's per-epoch peak queue depth
	// stays at or above queueSatFraction of its capacity for at least
	// queueSatEpochs epochs of the window.
	queueSatFraction = 0.75
	queueSatEpochs   = windowEpochs / 2

	// predictor-collapse fires when windowed predictor accuracy falls
	// below predictorFloor (worse than a coin flip) with at least
	// predictorMinSamples predictions in the window.
	predictorFloor      = 0.5
	predictorMinSamples = 256

	// row-thrash fires when the window's row-buffer conflicts (either
	// device) exceed rowThrashConflictRatio of its row operations (most
	// activates tear down a still-hot row) AND the peak per-epoch bank
	// imbalance reached rowThrashImbalance (the conflicts concentrate on
	// few banks rather than being uniform pressure), on windows with at
	// least rowThrashMinOps row operations.
	rowThrashConflictRatio = 0.5
	rowThrashImbalance     = 4.0
	rowThrashMinOps        = 512
)

// Evidence carries the counters that justified an incident, summed over
// its firing epochs (peaks for the queue fields). Only the fields of the
// incident's kind are populated.
type Evidence struct {
	SwapBytes       uint64 `json:"swap_bytes,omitempty"`
	DemandBytes     uint64 `json:"demand_bytes,omitempty"`
	Crossings       uint64 `json:"crossings,omitempty"`
	BypassToggles   uint64 `json:"bypass_toggles,omitempty"`
	Locks           uint64 `json:"locks,omitempty"`
	Unlocks         uint64 `json:"unlocks,omitempty"`
	PeakQueueNM     int    `json:"peak_queue_nm,omitempty"`
	PeakQueueFM     int    `json:"peak_queue_fm,omitempty"`
	PredictorHits   uint64 `json:"predictor_hits,omitempty"`
	PredictorMisses uint64 `json:"predictor_misses,omitempty"`
	RowConflicts    uint64 `json:"row_conflicts,omitempty"`
	RowOps          uint64 `json:"row_ops,omitempty"`
	// BankImbalance is the worst per-epoch max-over-mean bank skew seen
	// while the incident fired (a peak, like the queue fields).
	BankImbalance float64 `json:"bank_imbalance,omitempty"`
}

// Incident is one detected pathology: a contiguous stretch of epochs
// (quiet gaps up to closeAfter included) during which a windowed
// condition held. Field order is fixed, so JSON encoding is
// byte-deterministic.
type Incident struct {
	Kind string `json:"kind"`
	// FirstEpoch/LastEpoch are the sampler epoch indices of the first and
	// last firing evaluation; FirstCycle is the start of the first firing
	// epoch and LastCycle the boundary of the last.
	FirstEpoch uint64 `json:"first_epoch"`
	LastEpoch  uint64 `json:"last_epoch"`
	FirstCycle uint64 `json:"first_cycle"`
	LastCycle  uint64 `json:"last_cycle"`
	// Epochs counts evaluations on which the condition held.
	Epochs uint64 `json:"epochs"`
	// PeakSeverity is the worst windowed ratio observed (1.0 = exactly at
	// threshold; larger is worse).
	PeakSeverity float64  `json:"peak_severity"`
	Evidence     Evidence `json:"evidence"`
}

// String renders the one-line report form.
func (in *Incident) String() string {
	return fmt.Sprintf("%s: epochs %d-%d, cycles %d-%d, firing %d, peak %.2f",
		in.Kind, in.FirstEpoch, in.LastEpoch, in.FirstCycle, in.LastCycle,
		in.Epochs, in.PeakSeverity)
}

// obs is one epoch's detector-relevant reduction of a telemetry.Sample.
type obs struct {
	epoch, cycle, span uint64

	misses      uint64
	swapBytes   uint64
	demandBytes uint64
	crossings   uint64
	toggles     uint64
	locks       uint64
	unlocks     uint64
	peakNM      int
	peakFM      int
	predHits    uint64
	predMisses  uint64
	rowOps      uint64
	rowConf     uint64
	imbalance   float64 // max of the two devices' per-epoch bank imbalance
}

// tracker is one kind's open-incident state machine.
type tracker struct {
	open  *Incident
	quiet int
}

// Detector consumes epoch samples and accumulates incidents. Use one
// Detector per run; it is not safe for concurrent use (the harness calls
// it from the simulation goroutine at epoch boundaries).
type Detector struct {
	// bypassTarget is the access rate whose repeated crossing signals
	// governor oscillation: the machine's SILC-FM Eq. 1 ceiling.
	bypassTarget float64
	// queueCapNM/FM are the device queue capacities in requests
	// (channels x (read+write queue length)).
	queueCapNM, queueCapFM int

	ring []obs // last windowEpochs observations, oldest first

	prevRate      float64
	prevRateValid bool
	prevToggles   float64

	track [numKinds]tracker
	done  []Incident
}

// NewDetector builds a detector for machine m: the bypass-oscillation rule
// watches m.SILC.BypassTarget and queue-saturation m's device queue
// capacities. Returns nil when cfg.Disabled is set; all Detector methods
// are nil-safe.
func NewDetector(cfg Config, m config.Machine) *Detector {
	if cfg.Disabled {
		return nil
	}
	return &Detector{
		bypassTarget: m.SILC.BypassTarget,
		queueCapNM:   queueCap(m.NM),
		queueCapFM:   queueCap(m.FM),
	}
}

// queueCap is a device's request-queue capacity across its channels.
func queueCap(d config.DRAMConfig) int { return d.Channels * (d.ReadQueueLen + d.WriteQueueLen) }

// Observe feeds one epoch sample (deltas plus gauges) to every detector.
func (d *Detector) Observe(s *telemetry.Sample) {
	if d == nil || s == nil {
		return
	}
	o := obs{
		epoch:       s.Epoch,
		cycle:       s.Cycle,
		span:        s.SpanCycles,
		misses:      s.LLCMisses,
		swapBytes:   (s.SwapsIn + s.SwapsOut) * memunits.SubblockSize,
		demandBytes: s.DemandBytesNM + s.DemandBytesFM,
		locks:       s.Locks,
		unlocks:     s.Unlocks,
		peakNM:      s.PeakQueueNM,
		peakFM:      s.PeakQueueFM,
		predHits:    s.PredictorHits,
		predMisses:  s.PredictorMisses,
		rowOps:      s.RowHitsNM + s.RowMissesNM + s.RowHitsFM + s.RowMissesFM,
		rowConf:     s.RowConflictsNM + s.RowConflictsFM,
		imbalance:   s.BankImbalanceNM,
	}
	if s.BankImbalanceFM > o.imbalance {
		o.imbalance = s.BankImbalanceFM
	}
	// Idle epochs report AccessRate 0; only epochs that actually serviced
	// misses move the crossing detector, so bursts separated by silence do
	// not read as oscillation.
	if s.LLCMisses > 0 {
		if d.prevRateValid &&
			(d.prevRate >= d.bypassTarget) != (s.AccessRate >= d.bypassTarget) {
			o.crossings = 1
		}
		d.prevRate = s.AccessRate
		d.prevRateValid = true
	}
	// The SILC-FM governor exports its cumulative toggle count as the
	// bypass_toggles gauge; difference it into a per-epoch delta.
	for _, g := range s.Gauges {
		if g.Name == "bypass_toggles" {
			if delta := g.Value - d.prevToggles; delta > 0 {
				o.toggles = uint64(delta)
			}
			d.prevToggles = g.Value
		}
	}

	d.ring = append(d.ring, o)
	if len(d.ring) > windowEpochs {
		d.ring = d.ring[1:]
	}
	d.evaluate(&o)
}

// window sums the ring into one aggregate observation (peaks take max).
func (d *Detector) window() obs {
	var w obs
	for i := range d.ring {
		o := &d.ring[i]
		w.misses += o.misses
		w.swapBytes += o.swapBytes
		w.demandBytes += o.demandBytes
		w.crossings += o.crossings
		w.toggles += o.toggles
		w.locks += o.locks
		w.unlocks += o.unlocks
		if o.peakNM > w.peakNM {
			w.peakNM = o.peakNM
		}
		if o.peakFM > w.peakFM {
			w.peakFM = o.peakFM
		}
		w.predHits += o.predHits
		w.predMisses += o.predMisses
		w.rowOps += o.rowOps
		w.rowConf += o.rowConf
		if o.imbalance > w.imbalance {
			w.imbalance = o.imbalance
		}
	}
	return w
}

// evaluate runs every condition over the current window and advances the
// per-kind incident state machines with this epoch's contribution o.
func (d *Detector) evaluate(o *obs) {
	w := d.window()

	// swap-thrash: the window moved more bytes between levels than it
	// served to the cores.
	{
		fire := w.misses >= minWindowMisses && w.demandBytes > 0 &&
			float64(w.swapBytes) > swapThrashRatio*float64(w.demandBytes)
		sev := 0.0
		if fire {
			sev = float64(w.swapBytes) / float64(w.demandBytes) / swapThrashRatio
		}
		d.step(KindSwapThrash, fire, sev, o, Evidence{
			SwapBytes: o.swapBytes, DemandBytes: o.demandBytes,
		})
	}
	// bypass-oscillation: the access rate keeps crossing the governor
	// target, or the governor itself keeps toggling.
	{
		worst := w.crossings
		if w.toggles > worst {
			worst = w.toggles
		}
		fire := worst >= minCrossings
		sev := float64(worst) / float64(minCrossings)
		if !fire {
			sev = 0
		}
		d.step(KindBypassOscillation, fire, sev, o, Evidence{
			Crossings: o.crossings, BypassToggles: o.toggles,
		})
	}
	// lock-churn: locks and unlocks both high — residency decisions are
	// being reversed as fast as they are made.
	{
		churn := w.locks
		if w.unlocks < churn {
			churn = w.unlocks
		}
		fire := churn >= lockChurnMin
		sev := float64(churn) / float64(lockChurnMin)
		if !fire {
			sev = 0
		}
		d.step(KindLockChurn, fire, sev, o, Evidence{
			Locks: o.locks, Unlocks: o.unlocks,
		})
	}
	// queue-saturation: a device's per-epoch peak depth pinned near its
	// queue capacity for much of the window.
	{
		sat := func(capacity int, peak func(*obs) int) (int, float64) {
			if capacity <= 0 {
				return 0, 0
			}
			limit := queueSatFraction * float64(capacity)
			n, worst := 0, 0.0
			for i := range d.ring {
				p := peak(&d.ring[i])
				if float64(p) >= limit {
					n++
				}
				if f := float64(p) / float64(capacity); f > worst {
					worst = f
				}
			}
			return n, worst
		}
		nNM, sevNM := sat(d.queueCapNM, func(o *obs) int { return o.peakNM })
		nFM, sevFM := sat(d.queueCapFM, func(o *obs) int { return o.peakFM })
		fire := nNM >= queueSatEpochs || nFM >= queueSatEpochs
		sev := sevNM
		if sevFM > sev {
			sev = sevFM
		}
		if !fire {
			sev = 0
		}
		d.step(KindQueueSaturation, fire, sev, o, Evidence{
			PeakQueueNM: o.peakNM, PeakQueueFM: o.peakFM,
		})
	}
	// predictor-collapse: the way/location predictor is guessing worse
	// than the floor over a meaningful sample.
	{
		samples := w.predHits + w.predMisses
		acc := 0.0
		if samples > 0 {
			acc = float64(w.predHits) / float64(samples)
		}
		fire := samples >= predictorMinSamples && acc < predictorFloor
		sev := 0.0
		if fire {
			sev = 1 - acc
		}
		d.step(KindPredictorCollapse, fire, sev, o, Evidence{
			PredictorHits: o.predHits, PredictorMisses: o.predMisses,
		})
	}
	// row-thrash: row-buffer conflicts dominate the window's row activity
	// while the pressure concentrates on few banks — the access stream keeps
	// tearing down rows other accesses still want (the pathology a
	// row-locality-aware placement would steer around).
	{
		rate := 0.0
		if w.rowOps > 0 {
			rate = float64(w.rowConf) / float64(w.rowOps)
		}
		fire := w.rowOps >= rowThrashMinOps &&
			rate > rowThrashConflictRatio &&
			w.imbalance >= rowThrashImbalance
		sev := 0.0
		if fire {
			sev = rate / rowThrashConflictRatio
		}
		d.step(KindRowThrash, fire, sev, o, Evidence{
			RowConflicts: o.rowConf, RowOps: o.rowOps, BankImbalance: o.imbalance,
		})
	}
}

// step advances one kind's state machine: open or extend on fire, close
// after closeAfter consecutive quiet evaluations.
func (d *Detector) step(kind string, fire bool, sev float64, o *obs, ev Evidence) {
	t := &d.track[kindIndex(kind)]
	if !fire {
		if t.open != nil {
			t.quiet++
			if t.quiet >= closeAfter {
				d.done = append(d.done, *t.open)
				t.open = nil
			}
		}
		return
	}
	t.quiet = 0
	if t.open == nil {
		t.open = &Incident{
			Kind:       kind,
			FirstEpoch: o.epoch,
			FirstCycle: o.cycle - o.span,
		}
	}
	in := t.open
	in.LastEpoch = o.epoch
	in.LastCycle = o.cycle
	in.Epochs++
	if sev > in.PeakSeverity {
		in.PeakSeverity = sev
	}
	in.Evidence.SwapBytes += ev.SwapBytes
	in.Evidence.DemandBytes += ev.DemandBytes
	in.Evidence.Crossings += ev.Crossings
	in.Evidence.BypassToggles += ev.BypassToggles
	in.Evidence.Locks += ev.Locks
	in.Evidence.Unlocks += ev.Unlocks
	if ev.PeakQueueNM > in.Evidence.PeakQueueNM {
		in.Evidence.PeakQueueNM = ev.PeakQueueNM
	}
	if ev.PeakQueueFM > in.Evidence.PeakQueueFM {
		in.Evidence.PeakQueueFM = ev.PeakQueueFM
	}
	in.Evidence.PredictorHits += ev.PredictorHits
	in.Evidence.PredictorMisses += ev.PredictorMisses
	in.Evidence.RowConflicts += ev.RowConflicts
	in.Evidence.RowOps += ev.RowOps
	if ev.BankImbalance > in.Evidence.BankImbalance {
		in.Evidence.BankImbalance = ev.BankImbalance
	}
}

func kindIndex(kind string) int {
	if i, ok := KindIndex(kind); ok {
		return i
	}
	panic("health: unknown kind " + kind)
}

// Open returns copies of the incidents currently firing (or inside their
// closeAfter grace window), in kind order — the /healthz view.
func (d *Detector) Open() []Incident {
	if d == nil {
		return nil
	}
	var out []Incident
	for i := range d.track {
		if in := d.track[i].open; in != nil {
			out = append(out, *in)
		}
	}
	return out
}

// Status is the per-epoch health view harness.Run hands to the planes and
// the live hub: the incidents currently open plus the open/close
// transitions that happened at this epoch boundary. Opened incidents carry
// their initial snapshot; Closed incidents carry the last open snapshot
// observed before the tracker released them (the definitive final record
// still lands in Detector.Finish's list).
type Status struct {
	Open   []Incident
	Opened []Incident
	Closed []Incident
}

// DiffOpen computes the open/close transitions between two consecutive
// epochs' Open() snapshots. The detector keeps at most one open incident
// per kind (one tracker each), so kinds key the diff; a kind reopening in
// the same epoch its predecessor closed reports as one close plus one open
// when the first epochs differ.
func DiffOpen(prev, cur []Incident) (opened, closed []Incident) {
	prevByKind := make(map[string]Incident, len(prev))
	for _, in := range prev {
		prevByKind[in.Kind] = in
	}
	curByKind := make(map[string]Incident, len(cur))
	for _, in := range cur {
		curByKind[in.Kind] = in
		if p, ok := prevByKind[in.Kind]; !ok {
			opened = append(opened, in)
		} else if p.FirstEpoch != in.FirstEpoch {
			closed = append(closed, p)
			opened = append(opened, in)
		}
	}
	for _, in := range prev {
		if _, ok := curByKind[in.Kind]; !ok {
			closed = append(closed, in)
		}
	}
	return opened, closed
}

// Finish closes any still-open incidents and returns the run's complete
// incident list, sorted by first epoch then kind. Call once, after the
// final telemetry epoch (including the partial one Finish flushes).
func (d *Detector) Finish() []Incident {
	if d == nil {
		return nil
	}
	for i := range d.track {
		if in := d.track[i].open; in != nil {
			d.done = append(d.done, *in)
			d.track[i].open = nil
		}
	}
	sort.SliceStable(d.done, func(i, j int) bool {
		if d.done[i].FirstEpoch != d.done[j].FirstEpoch {
			return d.done[i].FirstEpoch < d.done[j].FirstEpoch
		}
		return kindIndex(d.done[i].Kind) < kindIndex(d.done[j].Kind)
	})
	return append([]Incident(nil), d.done...)
}

// WriteJSONL streams incidents one JSON object per line, followed by a
// summary line with per-kind counts (keys sorted by encoding/json), the
// -health-out format. Byte-deterministic for a deterministic incident
// list.
func WriteJSONL(w io.Writer, incidents []Incident) error {
	for i := range incidents {
		b, err := json.Marshal(&incidents[i])
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	byKind := map[string]int{}
	for i := range incidents {
		byKind[incidents[i].Kind]++
	}
	summary := struct {
		Summary   bool           `json:"summary"`
		Incidents int            `json:"incidents"`
		ByKind    map[string]int `json:"by_kind,omitempty"`
	}{Summary: true, Incidents: len(incidents), ByKind: byKind}
	if len(byKind) == 0 {
		summary.ByKind = nil
	}
	b, err := json.Marshal(&summary)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
