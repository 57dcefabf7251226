// Package silcfm is a simulation library reproducing "SILC-FM: Subblocked
// InterLeaved Cache-Like Flat Memory Organization" (Ryoo, Meswani,
// Prodromou, John — HPCA 2017).
//
// It models a heterogeneous flat memory — die-stacked HBM near memory plus
// off-chip DDR3 far memory — managed by one of seven organization schemes
// (the paper's SILC-FM plus its six comparison points), driven by a
// multicore processor model over synthetic SPEC CPU2006-like workloads, on
// top of an event-driven DRAM timing model.
//
// Quick start:
//
//	base, _ := silcfm.Run(silcfm.Options{Scheme: silcfm.Baseline, Workload: "mcf"})
//	silc, _ := silcfm.Run(silcfm.Options{Scheme: silcfm.SILCFM, Workload: "mcf"})
//	fmt.Printf("speedup %.2f at access rate %.2f\n", silc.SpeedupOver(base), silc.AccessRate)
//
// The Figure*/Table* functions regenerate every experiment of the paper's
// evaluation section; see EXPERIMENTS.md for measured-vs-paper results.
package silcfm

import (
	"fmt"
	"io"
	"os"
	"strings"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/manifest"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
	"silcfm/internal/telemetry/live"
	"silcfm/internal/workload"
)

// LiveServer is the embedded observability HTTP server (see Serve): it
// exposes /metrics (Prometheus text), /healthz (open health incidents),
// /progress (per-run status with ETA) and /debug/pprof for every run
// attached through Options.Live.
type LiveServer = live.Server

// Serve binds addr (host:port; ":0" picks a free port) and starts the live
// observability server. Attach runs via Options.Live; stop with Close.
func Serve(addr string) (*LiveServer, error) { return live.New(addr) }

// Scheme names a memory-organization scheme.
type Scheme string

// The implemented schemes, as plotted in the paper's Figure 7.
const (
	// Baseline is the no-die-stacked-DRAM system every figure normalizes
	// against: far memory only.
	Baseline Scheme = "base"
	// Random places pages randomly across NM+FM and never migrates.
	Random Scheme = "rand"
	// HMA is the epoch-based OS-managed migration scheme (§II-C).
	HMA Scheme = "hma"
	// CAMEO swaps 64-byte blocks within direct-mapped congruence groups.
	CAMEO Scheme = "cam"
	// CAMEOPrefetch is CAMEO plus a next-3-line prefetcher (§IV-A).
	CAMEOPrefetch Scheme = "camp"
	// PoM migrates 2 KB blocks after an access-count threshold.
	PoM Scheme = "pom"
	// SILCFM is the paper's contribution.
	SILCFM Scheme = "silc"
)

// Schemes returns every scheme, baseline first.
func Schemes() []Scheme {
	return []Scheme{Baseline, Random, HMA, CAMEO, CAMEOPrefetch, PoM, SILCFM}
}

// Workloads returns the Table III benchmark names.
func Workloads() []string { return append([]string(nil), workload.Names...) }

// Features toggles SILC-FM's mechanisms, enabling Figure 6-style
// breakdowns. The zero value disables everything except base subblock
// swapping with a direct-mapped organization.
type Features struct {
	Locking   bool // lock hot blocks in NM (§III-C)
	Ways      int  // NM set associativity: 1, 2 or 4 (§III-C)
	Bypass    bool // bandwidth-balancing bypass at 0.8 access rate (§III-E)
	Predictor bool // way/location predictor (§III-F)
	History   bool // bit vector history replay (§III-A)
}

// FullFeatures returns the paper's chosen design point.
func FullFeatures() Features {
	return Features{Locking: true, Ways: 4, Bypass: true, Predictor: true, History: true}
}

// Tuning overrides SILC-FM's numeric parameters for ablation studies
// (§III-B/C/E/F). Zero-valued fields keep the defaults.
type Tuning struct {
	HotThreshold     uint32  // lock threshold (paper: 50; scaled default 16)
	AgingInterval    uint64  // accesses between counter right-shifts
	BypassTarget     float64 // access-rate ceiling (paper: 0.8)
	HistoryEntries   int     // bit vector history table size
	PredictorEntries int     // way/location predictor size (paper: 4K)
}

// Options configures one simulation.
type Options struct {
	Scheme   Scheme
	Workload string // a Workloads() name; default "mcf"

	// InstrPerCore is the rate-mode retirement target per core
	// (default 1M). With ScaleInstrByClass, low-MPKI workloads run
	// proportionally longer so all benchmarks reach steady state.
	InstrPerCore      uint64
	ScaleInstrByClass bool

	// Cores defaults to 16 (Table II). NMCapacity/FMCapacity default to
	// 128 MB / 512 MB; both must be multiples of 2 KB and FM a multiple
	// of NM.
	Cores      int
	NMCapacity uint64
	FMCapacity uint64

	// SILC overrides SILC-FM's feature set (nil = FullFeatures).
	SILC *Features

	// Tuning overrides SILC-FM's numeric parameters (nil = paper design
	// point, scaled); zero-valued fields keep their defaults.
	Tuning *Tuning

	// FootprintScaleDen divides every workload's footprint and hot-set
	// sizes, for running on proportionally smaller NM/FM capacities
	// (0 or 1 = unscaled).
	FootprintScaleDen int

	// TracePath replays a trace captured by cmd/silcfm-trace instead of
	// the synthetic generator; Workload then only labels the run.
	TracePath string

	// Mix runs a heterogeneous multiprogrammed mix: core i runs benchmark
	// Mix[i mod len(Mix)]. Overrides Workload. (The paper evaluates
	// homogeneous rate mode; mixes are an extension.)
	Mix []string

	// ShadowCheck runs the continuous shadow-data integrity checker
	// alongside the simulation (internal/shadow): every demand access and
	// swap is verified against a token-level reference model, and Run
	// returns an error on the first violation. Costs simulation speed.
	ShadowCheck bool

	// MetricsOut streams epoch time-series metrics to a file: one sample
	// per MetricsEpoch simulated cycles holding the stats counter deltas
	// plus scheme gauges. JSONL by default; a path ending in ".csv" (or
	// MetricsCSV) switches to CSV with a header row.
	MetricsOut   string
	MetricsCSV   bool
	MetricsEpoch uint64 // sampling period in cycles (default 200_000)

	// TraceOut writes a Chrome trace-event JSON of semantic movement
	// events (demand/capture/deliver/relocate/swap/lock), viewable in
	// Perfetto. TraceLimit bounds the in-memory event ring (default 1<<18;
	// oldest events drop first).
	TraceOut   string
	TraceLimit int

	// ProgressOut, when non-nil, receives a progress line per epoch.
	ProgressOut io.Writer

	// ProfileOut writes the per-block / per-PC hotness profile as JSONL at
	// end of run: demand counts and latency, subblock swap churn, lock
	// transitions and bypass/mispredict pressure per flat 2 KB block and per
	// program counter, plus a summary line. Profiling is passive (counter
	// increments only) and cannot change Cycles or any counter.
	ProfileOut string
	// ProfileTopK, when positive, collects the hotness profile (even
	// without ProfileOut) and renders the K hottest blocks and PCs into
	// Report.TopOffenders.
	ProfileTopK int

	// HealthOut writes the run's health incidents (plus a summary line) as
	// JSONL. The online detector itself is always on — Report.Health and
	// the manifest carry its incidents regardless — this only selects the
	// file output.
	HealthOut string

	// PostmortemOut names a directory receiving one JSON file per
	// postmortem bundle the flight recorder emitted (bundle-NNN.json,
	// created only when an incident opened). The recorder itself is always
	// on; this only selects the file output.
	PostmortemOut string

	// ExemplarsOut writes every captured tail exemplar — the worst-K
	// slowest demand accesses per service path, with their full span
	// decomposition and issue/completion context — as JSONL at end of run.
	// The recorder itself is always on; this only selects the file output.
	// Report.Exemplars and the manifest carry the per-path summary
	// regardless.
	ExemplarsOut string

	// Live attaches this run to a live observability server (see Serve):
	// every telemetry epoch publishes a snapshot, and the run is marked
	// done (with its final incident list) when it completes. RunID names
	// the run on the server's endpoints; default "<scheme>/<workload>".
	Live  *LiveServer
	RunID string

	Seed int64
}

// Report is the outcome of one simulation. The json tags define the schema
// of silcfm-sim's -json output (rendered with the manifest package's
// canonical encoder).
type Report struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`

	Cycles       uint64 `json:"cycles"`       // rate-mode execution time in CPU cycles
	Instructions uint64 `json:"instructions"` // total retired over all cores

	AvgMPKI           float64 `json:"avg_mpki"`           // per-core LLC misses per kilo-instruction
	AccessRate        float64 `json:"access_rate"`        // paper Eq. 1: fraction of misses serviced by NM
	NMDemandFraction  float64 `json:"nm_demand_fraction"` // Figure 8 metric
	MigrationOverhead float64 `json:"migration_overhead"` // migration+metadata bytes per demand byte

	EnergyNJ float64 `json:"energy_nj"`
	EDP      float64 `json:"edp"` // energy-delay product (nJ x cycles)

	FootprintBytes uint64 `json:"footprint_bytes"` // unique pages touched x 2 KB

	Locks             uint64  `json:"locks"`
	Unlocks           uint64  `json:"unlocks"`
	Migrations        uint64  `json:"migrations"`
	SwapsIn           uint64  `json:"swaps_in"`
	SwapsOut          uint64  `json:"swaps_out"`
	BypassedAccesses  uint64  `json:"bypassed_accesses"`
	PredictorAccuracy float64 `json:"predictor_accuracy"`

	// DemandLatency breaks demand-completion latency down by service path
	// (NM hit, FM, swap critical path, bypass, predictor mispredict);
	// empty paths are omitted.
	DemandLatency []PathLatency `json:"demand_latency,omitempty"`

	// Attribution decomposes each path's total demand latency into named
	// spans (queue, device service, metadata fetch, swap serialization,
	// mispredict retry, other). For every path the span total equals the
	// DemandLatency sum exactly — verified by the counter-conservation
	// audit at end of run. Empty paths are omitted.
	Attribution []PathSpans `json:"attribution,omitempty"`

	// TopOffenders is the rendered hottest-blocks / hottest-PCs tables when
	// Options.ProfileTopK was set.
	TopOffenders string `json:"top_offenders,omitempty"`

	// Exemplars summarizes the tail-exemplar reservoirs: per service path,
	// the number of captured worst-K accesses and the identity of the very
	// slowest one. Byte-deterministic for a fixed seed, like every counter.
	// Full exemplar records (span waterfalls, issue/completion context) go
	// to Options.ExemplarsOut as JSONL.
	Exemplars []ExemplarSummary `json:"exemplars,omitempty"`

	// TailExemplars is the rendered per-path exemplar waterfall table
	// ("tail exemplars:"), printed by silcfm-sim under the latency lines.
	TailExemplars string `json:"tail_exemplars,omitempty"`

	// Health lists the incidents the online health detector observed
	// (swap-thrash, bypass oscillation, lock churn, queue saturation,
	// predictor collapse), in deterministic order. Empty means the run
	// stayed healthy; like every counter above it is byte-deterministic
	// for a fixed seed.
	Health []HealthIncident `json:"health,omitempty"`

	// WallSeconds is the host wall-clock time of the whole run, and
	// SimCyclesPerSec the simulated-cycles-per-host-second throughput of
	// the event loop. Both are host-dependent (never byte-deterministic);
	// manifests carry them under the noise-banded "host" section.
	WallSeconds     float64 `json:"wall_seconds"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

// PathSpans is one service path's latency attribution, in cycles summed
// over all completions on that path.
type PathSpans struct {
	Path       string `json:"path"`
	Count      uint64 `json:"count"`
	Total      uint64 `json:"total"`
	Queue      uint64 `json:"queue"`
	Service    uint64 `json:"service"`
	MetaFetch  uint64 `json:"meta_fetch"`
	SwapSerial uint64 `json:"swap_serial"`
	Mispredict uint64 `json:"mispredict"`
	Other      uint64 `json:"other"`
}

// HealthIncident is one detected anomaly: a window of consecutive epochs
// during which one pathology condition held (see internal/health for the
// trigger definitions).
type HealthIncident struct {
	Kind         string         `json:"kind"`
	FirstEpoch   uint64         `json:"first_epoch"`
	LastEpoch    uint64         `json:"last_epoch"`
	FirstCycle   uint64         `json:"first_cycle"`
	LastCycle    uint64         `json:"last_cycle"`
	Epochs       uint64         `json:"epochs"`
	PeakSeverity float64        `json:"peak_severity"`
	Evidence     HealthEvidence `json:"evidence"`
}

// HealthEvidence carries the counters accumulated while an incident was
// firing; only the fields relevant to the incident's kind are set.
type HealthEvidence struct {
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
}

// PathLatency summarizes one service path's demand latency distribution.
type PathLatency struct {
	Path  string  `json:"path"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	// P50/P95/P99 are percentile bounds in cycles (bucket upper edges);
	// Max is the exact worst observed latency.
	P50 uint64 `json:"p50"`
	P95 uint64 `json:"p95"`
	P99 uint64 `json:"p99"`
	Max uint64 `json:"max"`
}

// ExemplarSummary is one service path's tail-exemplar reservoir reduced to
// its manifest leaf: occupancy plus the slowest access's identity.
type ExemplarSummary struct {
	Path         string `json:"path"`
	Count        int    `json:"count"`
	WorstLatency uint64 `json:"worst_latency"`
	WorstStart   uint64 `json:"worst_start"`
	WorstBlock   uint64 `json:"worst_block"`
	WorstSpan    string `json:"worst_span"`
}

// SpeedupOver returns base.Cycles / r.Cycles, the paper's figure of merit.
func (r *Report) SpeedupOver(base *Report) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// machine converts Options into the internal machine description.
func (o Options) machine() (config.Machine, error) {
	m := config.Default()
	if o.Cores > 0 {
		m.Cores = o.Cores
	}
	if o.NMCapacity > 0 {
		m.NM = config.HBM(o.NMCapacity)
	}
	if o.FMCapacity > 0 {
		m.FM = config.DDR3(o.FMCapacity)
	}
	if o.Seed != 0 {
		m.Seed = o.Seed
	}
	switch o.Scheme {
	case "", SILCFM:
		m.Scheme = config.SchemeSILCFM
	case Baseline, Random, HMA, CAMEO, CAMEOPrefetch, PoM:
		m.Scheme = config.SchemeName(o.Scheme)
	default:
		return m, fmt.Errorf("silcfm: unknown scheme %q", o.Scheme)
	}
	if o.SILC != nil {
		m.SILC.Features = config.SILCFeatures{
			Locking:       o.SILC.Locking,
			Ways:          o.SILC.Ways,
			Bypass:        o.SILC.Bypass,
			Predictor:     o.SILC.Predictor,
			BitVecHistory: o.SILC.History,
		}
		if m.SILC.Features.Ways == 0 {
			m.SILC.Features.Ways = 1
		}
	}
	if o.Tuning != nil {
		if o.Tuning.HotThreshold > 0 {
			m.SILC.HotThreshold = o.Tuning.HotThreshold
		}
		if o.Tuning.AgingInterval > 0 {
			m.SILC.AgingInterval = o.Tuning.AgingInterval
		}
		if o.Tuning.BypassTarget > 0 {
			m.SILC.BypassTarget = o.Tuning.BypassTarget
		}
		if o.Tuning.HistoryEntries > 0 {
			m.SILC.HistoryEntries = o.Tuning.HistoryEntries
		}
		if o.Tuning.PredictorEntries > 0 {
			m.SILC.PredictorEntries = o.Tuning.PredictorEntries
		}
	}
	return m, m.Validate()
}

// Run executes one simulation to completion and reduces its statistics.
func Run(o Options) (*Report, error) {
	res, err := runResult(o)
	if err != nil {
		return nil, err
	}
	return reportOf(res, o.ProfileTopK), nil
}

// RunEntry executes one simulation and returns both the reduced Report and
// the run-manifest entry capturing its complete counter state, under the
// given entry ID (conventionally "<scheme>/<workload>").
func RunEntry(o Options, id string) (*Report, *manifest.Entry, error) {
	res, err := runResult(o)
	if err != nil {
		return nil, nil, err
	}
	e := manifest.FromResult(id, res)
	return reportOf(res, o.ProfileTopK), &e, nil
}

// runResult runs the simulation and enforces the end-of-run audits.
func runResult(o Options) (*harness.Result, error) {
	m, err := o.machine()
	if err != nil {
		return nil, err
	}
	wl := o.Workload
	if wl == "" && o.TracePath == "" && len(o.Mix) == 0 {
		wl = "mcf"
	}
	spec := harness.Spec{
		Machine:           m,
		Workload:          wl,
		InstrPerCore:      o.InstrPerCore,
		ScaleInstrByClass: o.ScaleInstrByClass,
		TracePath:         o.TracePath,
		Mix:               o.Mix,
		ShadowCheck:       o.ShadowCheck,
	}
	if o.FootprintScaleDen > 1 {
		spec.FootScaleNum, spec.FootScaleDen = 1, o.FootprintScaleDen
	}

	tcfg, cleanup, err := o.telemetryConfig()
	if err != nil {
		return nil, err
	}
	spec.Telemetry = tcfg
	var res *harness.Result
	if o.Live != nil {
		id := o.RunID
		if id == "" {
			id = string(m.Scheme) + "/" + wl
		}
		spec.Publish = o.Live.Hook(id)
		// Stream finalized bundles into the hub's incident store as they
		// are emitted, and each epoch's tail-exemplar snapshot into its
		// exemplar store; both are immutable once built, so sharing them
		// across goroutines is race-free.
		hub := o.Live
		spec.Flightrec = &flightrec.Config{
			OnBundle: func(b *flightrec.Bundle) { hub.AddBundle(id, b) },
		}
		spec.Exemplars = &exemplar.Config{
			OnSnapshot: func(es []exemplar.Exemplar) { hub.SetExemplars(id, es) },
		}
		defer func() {
			var final []health.Incident
			if res != nil {
				final = res.Health
			}
			o.Live.Done(id, final)
		}()
	}
	res, err = harness.Run(spec)
	if cerr := cleanup(); err == nil && cerr != nil {
		err = fmt.Errorf("silcfm: telemetry output: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if o.HealthOut != "" {
		if herr := writeHealthOut(o.HealthOut, res.Health); herr != nil {
			return nil, herr
		}
	}
	if o.PostmortemOut != "" {
		if _, perr := flightrec.WriteDir(o.PostmortemOut, res.Bundles); perr != nil {
			return nil, fmt.Errorf("silcfm: postmortem output: %w", perr)
		}
	}
	if o.ExemplarsOut != "" {
		if eerr := writeExemplarsOut(o.ExemplarsOut, res.Exemplars); eerr != nil {
			return nil, eerr
		}
	}
	if res.AuditErr != nil {
		return nil, fmt.Errorf("silcfm: data-integrity audit failed: %w", res.AuditErr)
	}
	if res.ShadowErr != nil {
		return nil, fmt.Errorf("silcfm: shadow integrity check failed: %w", res.ShadowErr)
	}
	if res.ConservationErr != nil {
		return nil, fmt.Errorf("silcfm: counter-conservation audit failed: %w", res.ConservationErr)
	}
	return res, nil
}

// telemetryConfig opens the requested telemetry outputs. cleanup closes
// them and reports the first close error (flush failures matter for files).
func (o Options) telemetryConfig() (*telemetry.Config, func() error, error) {
	noop := func() error { return nil }
	if o.MetricsOut == "" && o.TraceOut == "" && o.ProgressOut == nil &&
		o.ProfileOut == "" && o.ProfileTopK <= 0 {
		return nil, noop, nil
	}
	cfg := &telemetry.Config{
		MetricsCSV:  o.MetricsCSV || strings.HasSuffix(o.MetricsOut, ".csv"),
		EpochCycles: o.MetricsEpoch,
		TraceLimit:  o.TraceLimit,
		ProgressW:   o.ProgressOut,
		Profile:     o.ProfileTopK > 0,
	}
	var files []*os.File
	open := func(path string) (*os.File, error) {
		f, err := os.Create(path)
		if err != nil {
			for _, g := range files {
				g.Close()
			}
			return nil, fmt.Errorf("silcfm: %w", err)
		}
		files = append(files, f)
		return f, nil
	}
	if o.MetricsOut != "" {
		f, err := open(o.MetricsOut)
		if err != nil {
			return nil, noop, err
		}
		cfg.MetricsW = f
	}
	if o.TraceOut != "" {
		f, err := open(o.TraceOut)
		if err != nil {
			return nil, noop, err
		}
		cfg.TraceW = f
	}
	if o.ProfileOut != "" {
		f, err := open(o.ProfileOut)
		if err != nil {
			return nil, noop, err
		}
		cfg.ProfileW = f
	}
	cleanup := func() error {
		var first error
		for _, f := range files {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return cfg, cleanup, nil
}

// writeExemplarsOut writes the tail-exemplar JSONL file (Options.ExemplarsOut).
func writeExemplarsOut(path string, es []exemplar.Exemplar) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("silcfm: %w", err)
	}
	werr := exemplar.WriteJSONL(f, es)
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("silcfm: exemplar output: %w", werr)
	}
	return nil
}

// writeHealthOut writes the incident JSONL file (Options.HealthOut).
func writeHealthOut(path string, incidents []health.Incident) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("silcfm: %w", err)
	}
	werr := health.WriteJSONL(f, incidents)
	if cerr := f.Close(); werr == nil && cerr != nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("silcfm: health output: %w", werr)
	}
	return nil
}

func healthIncidents(res *harness.Result) []HealthIncident {
	var out []HealthIncident
	for _, in := range res.Health {
		out = append(out, HealthIncident{
			Kind:         in.Kind,
			FirstEpoch:   in.FirstEpoch,
			LastEpoch:    in.LastEpoch,
			FirstCycle:   in.FirstCycle,
			LastCycle:    in.LastCycle,
			Epochs:       in.Epochs,
			PeakSeverity: in.PeakSeverity,
			Evidence: HealthEvidence{
				SwapBytes:       in.Evidence.SwapBytes,
				DemandBytes:     in.Evidence.DemandBytes,
				Crossings:       in.Evidence.Crossings,
				BypassToggles:   in.Evidence.BypassToggles,
				Locks:           in.Evidence.Locks,
				Unlocks:         in.Evidence.Unlocks,
				PeakQueueNM:     in.Evidence.PeakQueueNM,
				PeakQueueFM:     in.Evidence.PeakQueueFM,
				PredictorHits:   in.Evidence.PredictorHits,
				PredictorMisses: in.Evidence.PredictorMisses,
			},
		})
	}
	return out
}

func reportOf(res *harness.Result, topK int) *Report {
	r := &Report{
		Workload:          res.Workload,
		Scheme:            res.Scheme,
		Cycles:            res.Cycles,
		Instructions:      res.TotalInstructions(),
		AvgMPKI:           res.AvgMPKI(),
		AccessRate:        res.Mem.AccessRate(),
		NMDemandFraction:  res.Mem.DemandNMFraction(),
		MigrationOverhead: res.Mem.MigrationOverheadRatio(),
		EnergyNJ:          res.EnergyNJ,
		EDP:               res.EDP(),
		FootprintBytes:    res.FootprintPages * 2048,
		Locks:             res.Mem.Locks,
		Unlocks:           res.Mem.Unlocks,
		Migrations:        res.Mem.Migrations,
		SwapsIn:           res.Mem.SwapsIn,
		SwapsOut:          res.Mem.SwapsOut,
		BypassedAccesses:  res.Mem.BypassedAccesses,
		PredictorAccuracy: res.Mem.PredictorAccuracy(),
		DemandLatency:     pathLatencies(res),
		Attribution:       pathSpans(res),
		Health:            healthIncidents(res),
		WallSeconds:       res.WallSeconds,
		SimCyclesPerSec:   res.SimCyclesPerSec,
	}
	if topK > 0 && res.Profile != nil {
		r.TopOffenders = res.Profile.TopOffenders(topK)
	}
	if len(res.Exemplars) > 0 {
		for _, s := range exemplar.Summarize(res.Exemplars) {
			r.Exemplars = append(r.Exemplars, ExemplarSummary{
				Path:         s.Path,
				Count:        s.Count,
				WorstLatency: s.WorstLatency,
				WorstStart:   s.WorstStart,
				WorstBlock:   s.WorstBlock,
				WorstSpan:    s.WorstSpan,
			})
		}
		var b strings.Builder
		exemplar.RenderWaterfall(&b, res.Exemplars, reportWaterfallTop)
		r.TailExemplars = b.String()
	}
	return r
}

// reportWaterfallTop bounds the exemplars rendered per path in
// Report.TailExemplars; the full reservoirs go to Options.ExemplarsOut.
const reportWaterfallTop = 4

func pathSpans(res *harness.Result) []PathSpans {
	if res.Attr == nil {
		return nil
	}
	var out []PathSpans
	for _, s := range res.Attr.Summaries() {
		out = append(out, PathSpans{
			Path:       s.Path,
			Count:      s.Count,
			Total:      s.Total,
			Queue:      s.Spans[stats.SpanQueue],
			Service:    s.Spans[stats.SpanService],
			MetaFetch:  s.Spans[stats.SpanMetaFetch],
			SwapSerial: s.Spans[stats.SpanSwapSerial],
			Mispredict: s.Spans[stats.SpanMispredict],
			Other:      s.Spans[stats.SpanOther],
		})
	}
	return out
}

func pathLatencies(res *harness.Result) []PathLatency {
	if res.Lat == nil {
		return nil
	}
	var out []PathLatency
	for _, s := range res.Lat.Summaries() {
		out = append(out, PathLatency{
			Path: s.Path, Count: s.Count, Mean: s.Mean,
			P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max,
		})
	}
	return out
}
