package telemetry_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
)

// newBareSystem builds an idle system for driving the sampler directly.
func newBareSystem() (*sim.Engine, *mem.System) {
	m := config.Small()
	m.NM = config.HBM(128 << 10)
	m.FM = config.DDR3(512 << 10)
	eng := sim.NewEngine()
	return eng, mem.NewSystem(m, eng)
}

// awkwardGauges is a controller whose gauge names carry every character CSV
// treats specially, to pin down RFC 4180 header quoting.
type awkwardGauges struct{}

func (awkwardGauges) Name() string                  { return "awkward" }
func (awkwardGauges) Locate(pa uint64) mem.Location { return mem.Location{DevAddr: pa} }
func (awkwardGauges) Handle(a *mem.Access)          {}
func (awkwardGauges) Gauges() []mem.Gauge {
	return []mem.Gauge{
		{Name: `queue,depth`, Value: 1},
		{Name: `says "hi"`, Value: 2},
		{Name: "plain", Value: 3},
	}
}

func TestCSVGaugeNameQuoting(t *testing.T) {
	eng, sys := newBareSystem()
	var buf bytes.Buffer
	tel := telemetry.Attach(&telemetry.Config{MetricsW: &buf, MetricsCSV: true}, sys, awkwardGauges{}, nil)
	if tel == nil {
		t.Fatal("Attach returned nil")
	}
	// No pump needed: once any cycles have elapsed, Finish flushes the
	// first (and only) sample as the final partial epoch.
	eng.At(1, func() { sys.Stats.LLCMisses++ })
	eng.Run()
	if err := tel.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid RFC 4180 CSV: %v\n%s", err, buf.String())
	}
	if len(rows) != 2 {
		t.Fatalf("want header + 1 sample row, got %d rows", len(rows))
	}
	header := rows[0]
	wantTail := []string{`g:queue,depth`, `g:says "hi"`, "g:plain"}
	got := header[len(header)-len(wantTail):]
	for i, want := range wantTail {
		if got[i] != want {
			t.Errorf("gauge column %d = %q, want %q", i, got[i], want)
		}
	}
	if len(rows[1]) != len(header) {
		t.Errorf("sample row has %d cells, header has %d", len(rows[1]), len(header))
	}
	// The raw header must not contain an unquoted comma-bearing name.
	line, _, _ := strings.Cut(buf.String(), "\n")
	if !strings.Contains(line, `"g:queue,depth"`) {
		t.Errorf("comma-bearing gauge name not quoted in header: %q", line)
	}
}

// TestZeroLengthRunEmitsNoSample pins the finish() fix: a run in which the
// engine never advanced must produce no epoch rows at all, not a spurious
// all-zero row.
func TestZeroLengthRunEmitsNoSample(t *testing.T) {
	for _, csv := range []bool{false, true} {
		_, sys := newBareSystem()
		var buf bytes.Buffer
		tel := telemetry.Attach(&telemetry.Config{MetricsW: &buf, MetricsCSV: csv}, sys, nil, nil)
		tel.Start()
		if err := tel.Finish(); err != nil {
			t.Fatalf("csv=%v: finish: %v", csv, err)
		}
		if buf.Len() != 0 {
			t.Errorf("csv=%v: zero-length run emitted %q, want nothing", csv, buf.String())
		}
	}
}

// driftGauges is a controller whose gauge set shrinks mid-run, to pin the
// CSV gauge-drift guard: the vanished gauge's column must zero-fill, never
// misalign the row.
type driftGauges struct{ gauges []mem.Gauge }

func (*driftGauges) Name() string                  { return "drift" }
func (*driftGauges) Locate(pa uint64) mem.Location { return mem.Location{DevAddr: pa} }
func (*driftGauges) Handle(a *mem.Access)          {}
func (d *driftGauges) Gauges() []mem.Gauge         { return d.gauges }

func TestCSVGaugeDriftZeroFills(t *testing.T) {
	const E = 100
	eng, sys := newBareSystem()
	ctl := &driftGauges{gauges: []mem.Gauge{
		{Name: "stable", Value: 7},
		{Name: "vanishing", Value: 42},
	}}
	var buf bytes.Buffer
	tel := telemetry.Attach(&telemetry.Config{MetricsW: &buf, MetricsCSV: true, EpochCycles: E}, sys, ctl, nil)
	tel.Start()
	eng.RunUntil(E) // first sample fixes the column order: stable, vanishing
	ctl.gauges = ctl.gauges[:1]
	eng.RunUntil(2 * E) // second sample no longer reports "vanishing"
	if err := tel.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV after gauge drift: %v\n%s", err, buf.String())
	}
	if len(rows) != 3 {
		t.Fatalf("want header + 2 samples, got %d rows", len(rows))
	}
	header := rows[0]
	col := -1
	for i, name := range header {
		if name == "g:vanishing" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("header lost the vanished gauge column: %v", header)
	}
	for i, row := range rows[1:] {
		if len(row) != len(header) {
			t.Fatalf("sample %d has %d cells, header has %d (misaligned)", i, len(row), len(header))
		}
	}
	if got := rows[1][col]; got != "42" {
		t.Errorf("first sample's vanishing gauge = %q, want 42", got)
	}
	if got := rows[2][col]; got != "0" {
		t.Errorf("vanished gauge cell = %q, want zero-filled 0", got)
	}
}

func TestEpochBoundaryExactMultiple(t *testing.T) {
	const E = 10_000
	eng, sys := newBareSystem()
	var buf bytes.Buffer
	tel := telemetry.Attach(&telemetry.Config{MetricsW: &buf, EpochCycles: E}, sys, nil, nil)
	tel.Start()
	// Activity strictly inside each of the three epochs.
	for i, bump := range []uint64{3, 5, 7} {
		bump := bump
		eng.At(uint64(i)*E+E/2, func() {
			sys.Stats.LLCMisses += bump
			sys.Stats.ServicedNM += bump
		})
	}
	// The run ends exactly on an epoch boundary: the final pump tick at 3E
	// emits the last sample, and Finish must not add a spurious empty one.
	eng.RunUntil(3 * E)
	if err := tel.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}

	var samples []telemetry.Sample
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var s telemetry.Sample
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("sample %d: %v", len(samples), err)
		}
		samples = append(samples, s)
	}
	if len(samples) != 3 {
		t.Fatalf("want exactly 3 samples for 3 full epochs, got %d: %+v", len(samples), samples)
	}
	var misses, span uint64
	for i, s := range samples {
		if want := uint64(i+1) * E; s.Cycle != want {
			t.Errorf("sample %d at cycle %d, want %d", i, s.Cycle, want)
		}
		if s.SpanCycles != E {
			t.Errorf("sample %d spans %d cycles, want %d", i, s.SpanCycles, E)
		}
		misses += s.LLCMisses
		span += s.SpanCycles
	}
	if misses != sys.Stats.LLCMisses {
		t.Errorf("epoch deltas sum to %d misses, run total %d", misses, sys.Stats.LLCMisses)
	}
	if span != eng.Now() {
		t.Errorf("epoch spans sum to %d cycles, run ended at %d", span, eng.Now())
	}
}

func TestProfilerIsInert(t *testing.T) {
	var pb bytes.Buffer
	with := runTiny(t, false, &telemetry.Config{ProfileW: &pb})
	without := runTiny(t, false, nil)
	if with.Cycles != without.Cycles {
		t.Errorf("profiling changed Cycles: %d vs %d", with.Cycles, without.Cycles)
	}
	if with.Mem != without.Mem {
		t.Errorf("profiling changed memory counters:\nwith    %+v\nwithout %+v", with.Mem, without.Mem)
	}
	if pb.Len() == 0 {
		t.Fatal("empty profile output")
	}
}

func TestProfileOutputIsDeterministicAndWellFormed(t *testing.T) {
	run := func() ([]byte, *telemetry.Profiler) {
		var pb bytes.Buffer
		r := runTiny(t, false, &telemetry.Config{ProfileW: &pb})
		if r.Profile == nil {
			t.Fatal("harness did not surface the profiler")
		}
		return pb.Bytes(), r.Profile
	}
	b1, p1 := run()
	b2, p2 := run()
	if !bytes.Equal(b1, b2) {
		t.Error("profile JSONL differs between identical runs")
	}
	if p1.TopOffenders(5) != p2.TopOffenders(5) {
		t.Error("TopOffenders differs between identical runs")
	}

	// Every line is valid JSON with a kind; the summary's counts match the
	// number of entry lines.
	var blocks, pcs int
	var summary struct {
		Blocks int `json:"blocks"`
		PCs    int `json:"pcs"`
	}
	sawSummary := false
	dec := json.NewDecoder(bytes.NewReader(b1))
	for dec.More() {
		var line struct {
			Kind string `json:"kind"`
		}
		raw := json.RawMessage{}
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("profile line: %v", err)
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("profile line: %v", err)
		}
		switch line.Kind {
		case "block":
			blocks++
		case "pc":
			pcs++
		case "summary":
			sawSummary = true
			if err := json.Unmarshal(raw, &summary); err != nil {
				t.Fatalf("summary line: %v", err)
			}
		default:
			t.Fatalf("unknown profile line kind %q", line.Kind)
		}
	}
	if !sawSummary {
		t.Fatal("profile missing summary line")
	}
	if summary.Blocks != blocks || summary.PCs != pcs {
		t.Errorf("summary claims %d blocks / %d pcs, stream has %d / %d",
			summary.Blocks, summary.PCs, blocks, pcs)
	}
	if blocks == 0 || pcs == 0 {
		t.Fatalf("profile is empty: %d blocks, %d pcs", blocks, pcs)
	}

	top := p1.TopOffenders(5)
	for _, want := range []string{"top 5 blocks by demand", "top 5 PCs by demand", "demands", "swaps_in", "mispred"} {
		if !strings.Contains(top, want) {
			t.Errorf("TopOffenders missing %q:\n%s", want, top)
		}
	}
}

// TestProfilerBoundsEntries feeds the profiler more distinct blocks and PCs
// than its maps hold: the first ProfileMaxEntries keys of each stay, and
// every demand to a later key is counted as dropped, including repeats.
func TestProfilerBoundsEntries(t *testing.T) {
	_, sys := newBareSystem()
	p := telemetry.NewProfiler(sys)
	const extra = 5
	n := uint64(telemetry.ProfileMaxEntries + extra)
	a := &mem.Access{}
	for i := uint64(0); i < n; i++ {
		a.PC, a.PAddr = i, i*memunits.BlockSize
		p.Observe(mem.Event{Kind: mem.EvComplete, Access: a, Path: stats.PathFM, Lat: 100})
	}
	// Repeats: an admitted key is counted, a refused one drops again.
	a.PC, a.PAddr = 0, 0
	p.Observe(mem.Event{Kind: mem.EvComplete, Access: a, Path: stats.PathFM, Lat: 100})
	a.PC, a.PAddr = n-1, (n-1)*memunits.BlockSize
	p.Observe(mem.Event{Kind: mem.EvComplete, Access: a, Path: stats.PathFM, Lat: 100})
	blocks, pcs, droppedBlocks, droppedPCs := p.Counts()
	if blocks != telemetry.ProfileMaxEntries || pcs != telemetry.ProfileMaxEntries {
		t.Errorf("maps hold %d blocks, %d pcs, want %d each", blocks, pcs, telemetry.ProfileMaxEntries)
	}
	if droppedBlocks != extra+1 || droppedPCs != extra+1 {
		t.Errorf("dropped %d block and %d PC demands, want %d each", droppedBlocks, droppedPCs, extra+1)
	}
}

func TestAttributionReconcilesWithLatencies(t *testing.T) {
	r := runTiny(t, false, nil)
	if r.ConservationErr != nil {
		t.Fatalf("conservation: %v", r.ConservationErr)
	}
	var total uint64
	for p := stats.DemandPath(0); p < stats.NumDemandPaths; p++ {
		if got, want := r.Attr.Count[p], r.Lat.Hist[p].N; got != want {
			t.Errorf("path %s: %d attributed, %d latency samples", p, got, want)
		}
		if got, want := r.Attr.PathTotal(p), r.Lat.Hist[p].Sum; got != want {
			t.Errorf("path %s: span sum %d != latency sum %d", p, got, want)
		}
		total += r.Attr.Count[p]
	}
	if total == 0 {
		t.Fatal("no demands attributed; test is vacuous")
	}
}
