package health_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/core"
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/telemetry"
)

const span = 10_000

// detector builds an enabled detector for the default machine.
func detector() *health.Detector { return health.NewDetector(health.Config{}, config.Default()) }

// feed builds the epoch-indexed sample a detector consumes.
func feed(epoch uint64, mut func(*telemetry.Sample)) *telemetry.Sample {
	s := &telemetry.Sample{Epoch: epoch, Cycle: (epoch + 1) * span, SpanCycles: span}
	if mut != nil {
		mut(s)
	}
	return s
}

func TestSwapThrashFiresAndCloses(t *testing.T) {
	det := detector()
	// Epochs 0-5 thrash (swaps double the demand), 6+ are healthy; the
	// incident must close after the window drains plus the grace epochs.
	for e := uint64(0); e < 16; e++ {
		thrash := e < 6
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 100
			s.ServicedNM = 50
			s.DemandBytesNM = 100 * memunits.SubblockSize
			if thrash {
				s.SwapsIn = 100
				s.SwapsOut = 100
			}
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 {
		t.Fatalf("want 1 incident, got %d: %+v", len(incidents), incidents)
	}
	in := incidents[0]
	if in.Kind != health.KindSwapThrash {
		t.Fatalf("kind = %q", in.Kind)
	}
	if in.FirstEpoch != 0 {
		t.Errorf("first epoch = %d, want 0", in.FirstEpoch)
	}
	if in.FirstCycle != 0 || in.LastCycle == 0 {
		t.Errorf("cycle range [%d, %d] not anchored", in.FirstCycle, in.LastCycle)
	}
	// The 8-epoch window still exceeds demand for a few epochs after
	// the thrash stops, so the incident extends past epoch 5 but must have
	// closed well before the run's end.
	if in.LastEpoch < 5 || in.LastEpoch > 9 {
		t.Errorf("last epoch = %d, want within (5, 9]", in.LastEpoch)
	}
	if in.PeakSeverity <= 1 {
		t.Errorf("peak severity %.2f, want > 1 (threshold crossed)", in.PeakSeverity)
	}
	if in.Evidence.SwapBytes == 0 || in.Evidence.DemandBytes == 0 {
		t.Errorf("evidence not populated: %+v", in.Evidence)
	}
}

func TestBypassOscillationCountsCrossingsNotIdleEpochs(t *testing.T) {
	det := detector()
	// Rate alternates around 0.8 every active epoch, but idle epochs
	// (zero misses, rate reported as 0) sit between them and must not
	// count as crossings.
	rates := []float64{0.9, 0, 0.9, 0, 0.9}
	for e, r := range rates {
		r := r
		det.Observe(feed(uint64(e), func(s *telemetry.Sample) {
			if r > 0 {
				s.LLCMisses = 50
				s.AccessRate = r
			}
		}))
	}
	if open := det.Open(); len(open) != 0 {
		t.Fatalf("idle gaps produced incidents: %+v", open)
	}
	// Now genuinely oscillate: four crossings within the window.
	seq := []float64{0.9, 0.7, 0.9, 0.7, 0.9}
	for i, r := range seq {
		r := r
		det.Observe(feed(uint64(5+i), func(s *telemetry.Sample) {
			s.LLCMisses = 50
			s.AccessRate = r
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 || incidents[0].Kind != health.KindBypassOscillation {
		t.Fatalf("want one bypass-oscillation incident, got %+v", incidents)
	}
	// The window hits 4 crossings on the final epoch, so the incident spans
	// one firing evaluation whose own contribution is a single crossing.
	if incidents[0].Evidence.Crossings == 0 {
		t.Errorf("evidence crossings = 0, want the firing epoch's crossing recorded")
	}
	if incidents[0].PeakSeverity < 1 {
		t.Errorf("peak severity %.2f, want >= 1", incidents[0].PeakSeverity)
	}
}

func TestBypassToggleGaugeFires(t *testing.T) {
	det := detector()
	// The governor gauge alone (cumulative toggle count) must trigger,
	// even with a steady access rate.
	toggles := []float64{2, 4, 6}
	for e, v := range toggles {
		v := v
		det.Observe(feed(uint64(e), func(s *telemetry.Sample) {
			s.LLCMisses = 50
			s.AccessRate = 0.9
			s.Gauges = []mem.Gauge{{Name: "bypass_toggles", Value: v}}
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 || incidents[0].Kind != health.KindBypassOscillation {
		t.Fatalf("want one bypass-oscillation incident, got %+v", incidents)
	}
	// Evidence accumulates over firing epochs only: the window reaches the
	// trigger on the second epoch (cumulative 4), so the first epoch's two
	// toggles predate the incident.
	if incidents[0].Evidence.BypassToggles != 4 {
		t.Errorf("evidence toggles = %d, want 4", incidents[0].Evidence.BypassToggles)
	}
}

// TestBypassOscillationWatchesMachineTarget: the crossing threshold is the
// machine's SILC-FM bypass target, not a detector default. A rate
// alternating around 0.7 crosses nothing at the default 0.8 target.
func TestBypassOscillationWatchesMachineTarget(t *testing.T) {
	m := config.Default()
	m.SILC.BypassTarget = 0.7
	run := func(m config.Machine) []health.Incident {
		det := health.NewDetector(health.Config{}, m)
		for e := uint64(0); e < 8; e++ {
			det.Observe(feed(e, func(s *telemetry.Sample) {
				s.LLCMisses = 50
				s.AccessRate = 0.65 + 0.1*float64(e%2)
			}))
		}
		return det.Finish()
	}
	if got := run(m); len(got) != 1 || got[0].Kind != health.KindBypassOscillation {
		t.Fatalf("target 0.7: want one bypass-oscillation incident, got %+v", got)
	}
	if got := run(config.Default()); len(got) != 0 {
		t.Fatalf("target 0.8: rates 0.65/0.75 raised incidents: %+v", got)
	}
}

func TestLockChurn(t *testing.T) {
	det := detector()
	for e := uint64(0); e < 4; e++ {
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 50
			s.Locks = 10
			s.Unlocks = 9
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 || incidents[0].Kind != health.KindLockChurn {
		t.Fatalf("want one lock-churn incident, got %+v", incidents)
	}
	ev := incidents[0].Evidence
	if ev.Locks == 0 || ev.Unlocks == 0 {
		t.Errorf("evidence not populated: %+v", ev)
	}
}

func TestQueueSaturationUsesPeaks(t *testing.T) {
	// The default machine's NM queues hold 8 channels x (32+32) = 512
	// requests; a peak of 480 is above the 75% line in all four epochs
	// that half of the 8-epoch window requires.
	m := config.Default()
	det := health.NewDetector(health.Config{}, m)
	// Instantaneous depth at the boundary is low; the per-epoch peak is
	// pinned near capacity. Only the peak should matter.
	for e := uint64(0); e < 4; e++ {
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 50
			s.QueueNM = 1
			s.PeakQueueNM = 480
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 || incidents[0].Kind != health.KindQueueSaturation {
		t.Fatalf("want one queue-saturation incident, got %+v", incidents)
	}
	if incidents[0].Evidence.PeakQueueNM != 480 {
		t.Errorf("evidence peak = %d, want 480", incidents[0].Evidence.PeakQueueNM)
	}
	// The capacity comes from the machine: the same trace against NM
	// queues twice as long stays below the line.
	m.NM.ReadQueueLen, m.NM.WriteQueueLen = 64, 64
	det2 := health.NewDetector(health.Config{}, m)
	for e := uint64(0); e < 4; e++ {
		det2.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 50
			s.PeakQueueNM = 480
		}))
	}
	if got := det2.Finish(); len(got) != 0 {
		t.Fatalf("peaks under 75%% of a 1024-request capacity raised incidents: %+v", got)
	}
}

func TestPredictorCollapse(t *testing.T) {
	// 50 predictions an epoch reach the 256-prediction floor on the sixth.
	det := detector()
	for e := uint64(0); e < 8; e++ {
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 50
			s.PredictorHits = 10
			s.PredictorMisses = 40
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 || incidents[0].Kind != health.KindPredictorCollapse {
		t.Fatalf("want one predictor-collapse incident, got %+v", incidents)
	}
	if in := incidents[0]; in.FirstEpoch != 5 {
		t.Errorf("first epoch = %d, want 5 (the first window with 256 predictions)", in.FirstEpoch)
	}
	if sev := incidents[0].PeakSeverity; sev < 0.75 || sev > 1 {
		t.Errorf("severity %.2f, want 1-accuracy = 0.8 ballpark", sev)
	}
}

func TestRowThrashFiresOnConflictStream(t *testing.T) {
	det := detector()
	// A synthetic conflict stream: nearly every FM row operation is a
	// conflict and the pressure sits on one bank (imbalance far above the
	// threshold). Epochs 6+ return to a healthy streaming mix.
	for e := uint64(0); e < 16; e++ {
		thrash := e < 6
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 300
			if thrash {
				s.RowHitsFM = 20
				s.RowMissesFM = 280
				s.RowConflictsFM = 260
				s.BankImbalanceFM = 24.0 // one hot bank out of 32
			} else {
				s.RowHitsFM = 280
				s.RowMissesFM = 20
				s.BankImbalanceFM = 1.2
			}
		}))
	}
	incidents := det.Finish()
	if len(incidents) != 1 || incidents[0].Kind != health.KindRowThrash {
		t.Fatalf("want one row-thrash incident, got %+v", incidents)
	}
	in := incidents[0]
	if in.PeakSeverity <= 1 {
		t.Errorf("peak severity %.2f, want > 1", in.PeakSeverity)
	}
	ev := in.Evidence
	if ev.RowConflicts == 0 || ev.RowOps == 0 {
		t.Errorf("evidence not populated: %+v", ev)
	}
	if ev.BankImbalance != 24.0 {
		t.Errorf("evidence imbalance = %v, want the peak 24.0", ev.BankImbalance)
	}
	// The incident must have closed after the window drained (hysteresis),
	// not extended to the run's end.
	if in.LastEpoch >= 15 {
		t.Errorf("incident never closed: last epoch %d", in.LastEpoch)
	}
}

func TestRowThrashNeedsImbalance(t *testing.T) {
	// The same conflict rate with uniform bank pressure is ordinary
	// bandwidth saturation, not row thrash: it must stay quiet.
	det := detector()
	for e := uint64(0); e < 8; e++ {
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 300
			s.RowHitsFM = 20
			s.RowMissesFM = 280
			s.RowConflictsFM = 260
			s.BankImbalanceFM = 1.1 // evenly spread
		}))
	}
	if got := det.Finish(); len(got) != 0 {
		t.Fatalf("uniform conflicts raised incidents: %+v", got)
	}
	// And below the activity floor nothing fires either.
	det2 := detector()
	for e := uint64(0); e < 8; e++ {
		det2.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 10
			s.RowHitsFM = 2
			s.RowMissesFM = 28
			s.RowConflictsFM = 26
			s.BankImbalanceFM = 24.0
		}))
	}
	if got := det2.Finish(); len(got) != 0 {
		t.Fatalf("sub-floor conflicts raised incidents: %+v", got)
	}
}

func TestDisabledDetectorIsNil(t *testing.T) {
	det := health.NewDetector(health.Config{Disabled: true}, config.Default())
	if det != nil {
		t.Fatal("Disabled config must return nil")
	}
	det.Observe(feed(0, nil)) // nil-safety
	if det.Open() != nil || det.Finish() != nil {
		t.Fatal("nil detector must stay silent")
	}
}

// thrashFeed drives one deterministic synthetic mixture through a fresh
// detector and returns the JSONL encoding of its incidents.
func thrashFeed(t *testing.T) []byte {
	t.Helper()
	det := detector()
	for e := uint64(0); e < 32; e++ {
		det.Observe(feed(e, func(s *telemetry.Sample) {
			s.LLCMisses = 100 + e
			s.DemandBytesNM = (100 + e) * memunits.SubblockSize
			if e%11 < 4 {
				s.SwapsIn, s.SwapsOut = 200+e, 200+e
			}
			if e%2 == 0 {
				s.AccessRate = 0.9
			} else {
				s.AccessRate = 0.7
			}
			s.Locks, s.Unlocks = 8, 8
			s.PredictorHits, s.PredictorMisses = 30, 70
		}))
	}
	var buf bytes.Buffer
	if err := health.WriteJSONL(&buf, det.Finish()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

func TestIncidentsByteDeterministicAndRoundTrip(t *testing.T) {
	b1 := thrashFeed(t)
	b2 := thrashFeed(t)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("incident JSONL differs between identical feeds:\n%s\nvs\n%s", b1, b2)
	}
	// Every line round-trips: incidents decode into Incident and re-encode
	// to the same bytes; the final line is the summary.
	dec := json.NewDecoder(bytes.NewReader(b1))
	var n int
	sawSummary := false
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		var probe struct {
			Kind    string `json:"kind"`
			Summary bool   `json:"summary"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if probe.Summary {
			sawSummary = true
			n++
			continue
		}
		var in health.Incident
		if err := json.Unmarshal(raw, &in); err != nil {
			t.Fatalf("incident line %d: %v", n, err)
		}
		re, err := json.Marshal(&in)
		if err != nil {
			t.Fatal(err)
		}
		if string(re) != string(raw) {
			t.Errorf("incident %d does not round-trip:\n%s\n%s", n, raw, re)
		}
		n++
	}
	if !sawSummary {
		t.Fatal("JSONL missing the summary line")
	}
	if n < 2 {
		t.Fatalf("feed produced %d lines; test is vacuous", n)
	}
}

// runConflictScenario hammers two far-memory blocks that map to the same
// NM congruence set through a real SILC-FM controller and returns the
// detector's incidents. With ways=1 and no locking the two blocks evict
// each other on every access (restore + install per miss); the paper's
// full design point keeps both resident.
func runConflictScenario(t *testing.T, feats config.SILCFeatures) []health.Incident {
	t.Helper()
	m := config.Small()
	m.Scheme = config.SchemeSILCFM
	m.NM = config.HBM(256 << 10)
	m.FM = config.DDR3(1 << 20)
	m.SILC.Features = feats
	m.SILC.HotThreshold = 3
	m.SILC.AgingInterval = 1 << 10

	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	ctl := core.New(sys, m.SILC)

	det := health.NewDetector(health.Config{}, m)
	tel := telemetry.Attach(&telemetry.Config{EpochCycles: 5_000}, sys, ctl,
		func(st telemetry.EpochState) { det.Observe(st.Sample) })
	tel.Start()

	// Two FM blocks in NM set 0 for every associativity that divides
	// nmBlocks: b % (nmBlocks/ways) == 0 for both.
	nmBlocks := sys.NMCap / memunits.BlockSize
	blocks := []uint64{nmBlocks, 2 * nmBlocks}
	deadline := uint64(0)
	for i := 0; i < 3000; i++ {
		b := blocks[i%2]
		sub := uint64(i%int(memunits.SubblocksPerBlock)) * memunits.SubblockSize
		ctl.Handle(&mem.Access{
			PC:    1,
			PAddr: b*memunits.BlockSize + sub,
			Start: eng.Now(),
		})
		deadline += 100
		eng.RunUntil(deadline)
	}
	if err := tel.Finish(); err != nil {
		t.Fatalf("telemetry finish: %v", err)
	}
	return det.Finish()
}

func hasKind(incidents []health.Incident, kind string) bool {
	for _, in := range incidents {
		if in.Kind == kind {
			return true
		}
	}
	return false
}

// TestConflictThrashDetectedOnDirectMappedOnly is the acceptance scenario:
// the same conflict pattern raises swap-thrash on a direct-mapped,
// featureless organization and stays quiet on the paper's full design
// point (associativity + locking + bypass absorb the conflict).
func TestConflictThrashDetectedOnDirectMappedOnly(t *testing.T) {
	direct := runConflictScenario(t, config.SILCFeatures{Ways: 1})
	if !hasKind(direct, health.KindSwapThrash) {
		t.Errorf("direct-mapped conflict run raised no swap-thrash: %+v", direct)
	}
	full := runConflictScenario(t, config.SILCFeatures{
		Locking: true, Ways: 4, Bypass: true, Predictor: true, BitVecHistory: true,
	})
	if hasKind(full, health.KindSwapThrash) {
		t.Errorf("full SILC-FM design point thrashed on the conflict pattern: %+v", full)
	}

	// Determinism of the real-simulation path: identical runs, identical
	// incident bytes.
	again := runConflictScenario(t, config.SILCFeatures{Ways: 1})
	b1, _ := json.Marshal(direct)
	b2, _ := json.Marshal(again)
	if !bytes.Equal(b1, b2) {
		t.Errorf("incidents differ between identical runs:\n%s\nvs\n%s", b1, b2)
	}
}

func TestDiffOpen(t *testing.T) {
	inc := func(kind string, firstEpoch uint64) health.Incident {
		return health.Incident{Kind: kind, FirstEpoch: firstEpoch}
	}
	kinds := func(ins []health.Incident) []string {
		var out []string
		for _, in := range ins {
			out = append(out, in.Kind)
		}
		return out
	}
	cases := []struct {
		name                string
		prev, cur           []health.Incident
		wantOpen, wantClose []string
	}{
		{"both empty", nil, nil, nil, nil},
		{"opens", nil, []health.Incident{inc(health.KindSwapThrash, 3)}, []string{health.KindSwapThrash}, nil},
		{"closes", []health.Incident{inc(health.KindSwapThrash, 3)}, nil, nil, []string{health.KindSwapThrash}},
		{"steady", []health.Incident{inc(health.KindSwapThrash, 3)}, []health.Incident{inc(health.KindSwapThrash, 3)}, nil, nil},
		{
			// Same kind, new FirstEpoch: the old incident closed and a new
			// one opened between the two observations.
			"reopen",
			[]health.Incident{inc(health.KindLockChurn, 2)},
			[]health.Incident{inc(health.KindLockChurn, 9)},
			[]string{health.KindLockChurn}, []string{health.KindLockChurn},
		},
		{
			"mixed",
			[]health.Incident{inc(health.KindSwapThrash, 1), inc(health.KindLockChurn, 2)},
			[]health.Incident{inc(health.KindLockChurn, 2), inc(health.KindQueueSaturation, 5)},
			[]string{health.KindQueueSaturation}, []string{health.KindSwapThrash},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opened, closed := health.DiffOpen(tc.prev, tc.cur)
			if got := kinds(opened); !reflect.DeepEqual(got, tc.wantOpen) {
				t.Errorf("opened = %v, want %v", got, tc.wantOpen)
			}
			if got := kinds(closed); !reflect.DeepEqual(got, tc.wantClose) {
				t.Errorf("closed = %v, want %v", got, tc.wantClose)
			}
		})
	}
}
