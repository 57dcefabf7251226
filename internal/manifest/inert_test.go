package manifest_test

import (
	"bufio"
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
	"silcfm/internal/manifest"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
	"silcfm/internal/telemetry/live"
)

// planes selects the observability planes of one run.
type planes struct {
	flightrec bool // incident flight recorder
	exemplars bool // tail-exemplar recorder
	telemetry bool // movement tracer, hotness profiler and metrics writer
	live      bool // live hub publishing to three draining SSE subscribers
}

// planeRun is one run's manifest entry, result and plane outputs.
type planeRun struct {
	entry   manifest.Entry
	res     *harness.Result
	trace   int // bytes written by each telemetry writer
	profile int
	metrics int
	epochs  []int // SSE epoch frames received by each subscriber
}

// thrashCell is the configuration the postmortem, exemplar and live CI
// stages run: SILC-FM with an 8 MiB near memory and 32 MiB far memory
// under a milc footprint slice (÷16) at 100 k instructions per core, which
// swaps, locks and opens health incidents.
func thrashCell() harness.Spec {
	m := config.Default()
	m.Scheme = config.SchemeSILCFM
	m.NM = config.HBM(8 << 20)
	m.FM = config.DDR3(32 << 20)
	return harness.Spec{
		Machine:      m,
		Workload:     "milc",
		InstrPerCore: 100_000,
		FootScaleNum: 1,
		FootScaleDen: 16,
	}
}

// runPlanes runs thrashCell with the selected planes, wiring the live hub
// the way silcfm.Options.Live does.
func runPlanes(t *testing.T, p planes) planeRun {
	t.Helper()
	const id = "silc/milc"
	spec := thrashCell()
	if !p.flightrec {
		spec.Flightrec = &flightrec.Config{Disabled: true}
	}
	if !p.exemplars {
		spec.Exemplars = &exemplar.Config{Disabled: true}
	}
	var trace, profile, metrics bytes.Buffer
	if p.telemetry {
		spec.Telemetry = &telemetry.Config{TraceW: &trace, ProfileW: &profile, MetricsW: &metrics}
	}
	var out planeRun
	var drained sync.WaitGroup
	if p.live {
		srv, err := live.New("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			srv.Close() // ends the subscriber streams
			drained.Wait()
		}()
		out.epochs = make([]int, 3)
		for i := range out.epochs {
			// Get returns once the handler has subscribed, so every
			// epoch frame of the run flows through this stream.
			resp, err := http.Get(srv.URL() + "/events")
			if err != nil {
				t.Fatal(err)
			}
			drained.Add(1)
			go func(n *int) {
				defer drained.Done()
				defer resp.Body.Close()
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					if sc.Text() == "event: "+live.EventEpoch {
						*n++
					}
				}
			}(&out.epochs[i])
		}
		spec.Publish = srv.Hook(id)
		if p.flightrec {
			spec.Flightrec = &flightrec.Config{OnBundle: func(b *flightrec.Bundle) { srv.AddBundle(id, b) }}
		}
		if p.exemplars {
			spec.Exemplars = &exemplar.Config{OnSnapshot: func(es []exemplar.Exemplar) { srv.SetExemplars(id, es) }}
		}
	}
	res, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuditErr != nil || res.ConservationErr != nil {
		t.Fatal(res.AuditErr, res.ConservationErr)
	}
	out.entry = manifest.FromResult(id, res)
	out.res = res
	out.trace, out.profile, out.metrics = trace.Len(), profile.Len(), metrics.Len()
	return out
}

// canonical encodes e's deterministic sections: Host cleared, and the
// exemplars leaf cleared when dropExemplars is set.
func canonical(t *testing.T, e manifest.Entry, dropExemplars bool) []byte {
	t.Helper()
	e.Host = manifest.Host{}
	if dropExemplars {
		e.Sim.Exemplars = nil
	}
	b, err := manifest.Canonical(e)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPlanesAreInert proves every observability plane inert on the thrash
// cell: with each plane turned off in turn, the canonical manifest (Host
// cleared) is byte-identical to the all-planes-on run outside that plane's
// own leaf, and so are the cycle count and every memory counter. The
// all-on run must show each plane actually worked.
func TestPlanesAreInert(t *testing.T) {
	all := planes{flightrec: true, exemplars: true, telemetry: true, live: true}
	on := runPlanes(t, all)

	if len(on.res.Bundles) == 0 {
		t.Error("flight recorder captured no bundle")
	}
	if len(on.entry.Sim.Exemplars) == 0 {
		t.Error("manifest carries no exemplar summaries")
	}
	if on.trace == 0 || on.profile == 0 || on.metrics == 0 {
		t.Errorf("telemetry wrote %d B trace, %d B profile, %d B metrics", on.trace, on.profile, on.metrics)
	}
	for i, n := range on.epochs {
		if n == 0 {
			t.Errorf("SSE subscriber %d received no epoch frame", i)
		}
	}
	// The exemplar summary leaf is itself sim-exact: the worst latency per
	// path matches the latency histogram's exact max.
	maxByPath := map[string]uint64{}
	for _, l := range on.entry.Sim.Latency {
		maxByPath[l.Path] = l.Max
	}
	for _, s := range on.entry.Sim.Exemplars {
		if s.Count == 0 || s.WorstLatency != maxByPath[s.Path] {
			t.Errorf("exemplar summary %+v disagrees with histogram max %d", s, maxByPath[s.Path])
		}
	}

	for _, c := range []struct {
		name string
		off  func(*planes)
	}{
		{"flightrec", func(p *planes) { p.flightrec = false }},
		{"exemplars", func(p *planes) { p.exemplars = false }},
		{"telemetry", func(p *planes) { p.telemetry = false }},
		{"live", func(p *planes) { p.live = false }},
	} {
		t.Run(c.name+"-off", func(t *testing.T) {
			p := all
			c.off(&p)
			off := runPlanes(t, p)
			if !p.flightrec && off.res.Bundles != nil {
				t.Errorf("disabled recorder produced %d bundles", len(off.res.Bundles))
			}
			if !p.exemplars && off.entry.Sim.Exemplars != nil {
				t.Error("disabled exemplar recorder left a sim.exemplars leaf")
			}
			if on.res.Cycles != off.res.Cycles {
				t.Errorf("Cycles %d on, %d off", on.res.Cycles, off.res.Cycles)
			}
			if on.res.Mem != off.res.Mem {
				t.Errorf("memory counters differ:\non  %+v\noff %+v", on.res.Mem, off.res.Mem)
			}
			a := canonical(t, on.entry, !p.exemplars)
			b := canonical(t, off.entry, !p.exemplars)
			if !bytes.Equal(a, b) {
				t.Errorf("manifests differ with %s off:\n%s", c.name, firstDiff(a, b))
			}
		})
	}
}

// firstDiff renders the first differing line of two encodings.
func firstDiff(a, b []byte) string {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "on:  " + al[i] + "\noff: " + bl[i]
		}
	}
	return "one encoding is a prefix of the other"
}
