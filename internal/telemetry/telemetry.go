// Package telemetry is the observability layer of the simulator: an epoch
// sampler that streams time-series metrics (stats.Memory counter deltas plus
// scheme gauges) as JSONL or CSV, a movement-event tracer that records the
// semantic mem.Observer stream as Chrome trace-event JSON viewable in
// Perfetto, a bounded per-block / per-PC hotness profiler, and periodic
// progress reporting for long runs.
//
// All instrumentation is read-only with respect to simulation state: the
// sampler pump schedules zero-work events on the engine (which never change
// the relative order of real events, see sim.Engine's (when, seq) ordering),
// the tracer only appends to a ring buffer, and the profiler only bumps
// counters in bounded maps. Enabling telemetry therefore cannot change
// Cycles or any counter, and all output is byte-deterministic for a fixed
// seed.
package telemetry

import (
	"fmt"
	"io"
	"time"

	"silcfm/internal/mem"
	"silcfm/internal/stats"
)

// Config selects which telemetry outputs a run produces. A nil Config (or
// one with no writers) disables everything at zero cost.
type Config struct {
	// MetricsW receives one epoch sample per line (JSONL by default).
	MetricsW io.Writer
	// MetricsCSV switches the sample stream to CSV with a header row.
	MetricsCSV bool
	// EpochCycles is the sampling period in simulated cycles (default
	// 200_000: roughly 100 samples for the default single-workload run).
	EpochCycles uint64
	// TraceW receives the Chrome trace-event JSON at end of run.
	TraceW io.Writer
	// TraceLimit bounds the trace ring buffer (default 1<<18 events); the
	// oldest events are dropped first and the drop count is reported in the
	// trace's otherData.
	TraceLimit int
	// ProgressW receives a progress line each epoch.
	ProgressW io.Writer
	// ProfileW receives the per-block / per-PC hotness profile as JSONL at
	// end of run.
	ProfileW io.Writer
	// Profile collects the hotness profile without writing it (for callers
	// that only render TopOffenders); implied by ProfileW != nil.
	Profile bool
}

// EpochState is one epoch-boundary snapshot handed to Attach's epoch sink.
// Sample holds this epoch's deltas; Mem and Lat point at the live
// cumulative state, valid only during the callback.
type EpochState struct {
	Sample *Sample
	Mem    *stats.Memory
	Lat    *stats.PathLatencies
	// Attr points at the live cumulative span attribution (valid only
	// during the callback, like Mem/Lat); consumers that want per-epoch
	// deltas difference it themselves (the flight recorder does).
	Attr *stats.Attribution
	// Dram points at the sampler-owned per-bank DRAM epoch deltas (the
	// bank-heatmap feed). Like Mem/Lat/Attr it is valid only during the
	// callback and its buffers are overwritten next epoch.
	Dram *DramEpoch
	// Done/Total are the instruction-progress probe's values (zero when
	// no probe is installed; see T.SetProgress).
	Done, Total uint64
}

// DefaultEpochCycles is the sampling period used when Config.EpochCycles is
// zero.
const DefaultEpochCycles = 200_000

// DefaultTraceLimit is the trace ring bound used when Config.TraceLimit is
// zero.
const DefaultTraceLimit = 1 << 18

// T is one run's attached telemetry. All methods are nil-safe so callers
// can thread a nil *T through unconditionally.
type T struct {
	cfg     Config
	sys     *mem.System
	sampler *sampler
	tracer  *Tracer
	prof    *Profiler
	// onEpoch receives every epoch sample in memory (see Attach).
	onEpoch func(EpochState)
	// progress reports retired and target instructions across cores.
	progress func() (done, total uint64)
	// wallStart anchors the ETA / Mcyc-per-second figures in the progress
	// line (host wall clock; never influences simulation state).
	wallStart time.Time
	err       error
}

// Attach wires telemetry onto a system before the simulation starts. ctl is
// the raw (unwrapped) controller; if it implements mem.GaugeProvider its
// gauges ride along in every sample. onEpoch, when non-nil, receives every
// epoch sample in memory — the feed harness.Run fans out to the health
// detector, the flight and exemplar recorders and the live hub. It runs on
// the simulation goroutine at the epoch boundary; the referenced state is
// only valid for the duration of the call (copy, don't retain). A nil cfg
// requests no outputs. Returns nil when neither cfg nor onEpoch requests
// anything.
func Attach(cfg *Config, sys *mem.System, ctl mem.Controller, onEpoch func(EpochState)) *T {
	if cfg == nil {
		cfg = &Config{}
	}
	if cfg.MetricsW == nil && cfg.TraceW == nil && cfg.ProgressW == nil &&
		cfg.ProfileW == nil && !cfg.Profile && onEpoch == nil {
		return nil
	}
	t := &T{cfg: *cfg, sys: sys, onEpoch: onEpoch}
	if t.cfg.EpochCycles == 0 {
		t.cfg.EpochCycles = DefaultEpochCycles
	}
	if t.cfg.TraceLimit <= 0 {
		t.cfg.TraceLimit = DefaultTraceLimit
	}
	if t.cfg.MetricsW != nil || onEpoch != nil {
		gp, _ := ctl.(mem.GaugeProvider)
		t.sampler = newSampler(t.cfg.MetricsW, t.cfg.MetricsCSV, sys, gp)
	}
	if t.cfg.TraceW != nil {
		t.tracer = NewTracer(t.cfg.TraceLimit)
		sys.AttachObserver(t.tracer)
	}
	if t.cfg.ProfileW != nil || t.cfg.Profile {
		t.prof = NewProfiler(sys)
		sys.AttachObserver(t.prof)
	}
	return t
}

// Profiler returns the attached hotness profiler, or nil when profiling was
// not requested.
func (t *T) Profiler() *Profiler {
	if t == nil {
		return nil
	}
	return t.prof
}

// Tracer returns the attached movement tracer, or nil when tracing was not
// requested. The harness uses it to inject exemplar span waterfalls after
// the engine stops, before Finish writes the trace.
func (t *T) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// SetProgress installs the instruction-progress probe used by ProgressW.
func (t *T) SetProgress(fn func() (done, total uint64)) {
	if t != nil {
		t.progress = fn
	}
}

// Start schedules the epoch pump. Call after the cores are wired (so the
// progress probe is live) and before the engine runs.
func (t *T) Start() {
	if t == nil || (t.sampler == nil && t.cfg.ProgressW == nil) {
		return
	}
	t.wallStart = time.Now()
	var pump func()
	pump = func() {
		t.tick()
		t.sys.Eng.After(t.cfg.EpochCycles, pump)
	}
	t.sys.Eng.After(t.cfg.EpochCycles, pump)
}

// tick emits one epoch sample and/or progress line at the current cycle.
func (t *T) tick() {
	t.epochSample()
	if t.cfg.ProgressW != nil {
		now := t.sys.Eng.Now()
		if t.progress != nil {
			done, total := t.progress()
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(done) / float64(total)
			}
			fmt.Fprintf(t.cfg.ProgressW, "progress: cycle=%d instr=%d/%d (%.1f%%)%s\n",
				now, done, total, pct, t.wallNote(now, done, total))
		} else {
			fmt.Fprintf(t.cfg.ProgressW, "progress: cycle=%d%s\n",
				now, t.wallNote(now, 0, 0))
		}
	}
}

// epochSample takes one sampler reading and feeds the epoch sink.
func (t *T) epochSample() {
	if t.sampler == nil || t.err != nil {
		return
	}
	sm, err := t.sampler.sample()
	if err != nil {
		t.err = err
		return
	}
	t.emit(sm)
}

// emit hands one fresh sample to the epoch sink.
func (t *T) emit(sm *Sample) {
	if sm == nil || t.onEpoch == nil {
		return
	}
	st := EpochState{Sample: sm, Mem: t.sys.Stats, Lat: t.sys.Lat, Attr: t.sys.Attr, Dram: &t.sampler.dram}
	if t.progress != nil {
		st.Done, st.Total = t.progress()
	}
	t.onEpoch(st)
}

// wallNote renders the host-side rate and ETA suffix of a progress line
// (same arithmetic as harness.SweepResult.WallFooter): simulated Mcyc per
// host second, and the wall time left assuming retirement stays linear.
func (t *T) wallNote(cycle, done, total uint64) string {
	elapsed := time.Since(t.wallStart).Seconds()
	if elapsed <= 0 {
		return ""
	}
	// stats.Ratio guards the sub-millisecond-run and zero-done edges: a
	// zero or non-finite quotient renders as 0 instead of NaN/Inf.
	note := fmt.Sprintf(" %.1f Mcyc/s", stats.Ratio(float64(cycle), elapsed)/1e6)
	if done > 0 && total > done {
		eta := time.Duration(elapsed * stats.Ratio(float64(total-done), float64(done)) * float64(time.Second))
		note += " eta " + eta.Round(time.Second).String()
	}
	return note
}

// Finish flushes the final partial epoch (so per-epoch deltas sum exactly to
// the end-of-run totals) and writes the trace JSON. Call once, after the
// engine stops and before results are read.
func (t *T) Finish() error {
	if t == nil {
		return nil
	}
	if t.sampler != nil && t.err == nil {
		sm, err := t.sampler.finish()
		if err != nil {
			t.err = err
		} else {
			t.emit(sm)
		}
	}
	if t.tracer != nil && t.err == nil {
		t.err = t.tracer.Write(t.cfg.TraceW)
	}
	if t.prof != nil && t.cfg.ProfileW != nil && t.err == nil {
		t.err = t.prof.WriteJSONL(t.cfg.ProfileW)
	}
	return t.err
}
