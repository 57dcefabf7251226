package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"silcfm/internal/harness"
)

// shortInstr keeps test runs to a fraction of a second while still past
// the first swaps, locks and mispredicts of silc-mcf-swap.
const shortInstr = 300_000

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	for _, c := range []struct {
		mode string
		json []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEndMetrics}, {"per_layer", bj.PerLayer, perLayerMetrics}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, benchmark %d", c.mode, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.mode, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

// TestTracedDigestEqualsUntraced proves the wrappers and the mirrored
// assembly inert: the traced pass simulates exactly what harness.Run does.
func TestTracedDigestEqualsUntraced(t *testing.T) {
	for _, w := range workloads {
		spec := w.spec(1, shortInstr, w.planes)
		res, err := harness.Run(spec)
		if err := checkRun(res, err); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tr, err := runTraced(spec)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if got, want := tr.out.digest(), outcomeOf(res).digest(); got != want {
			t.Errorf("%s: traced digest %016x, harness.Run %016x", w.name, got, want)
		}
		if tr.t.timed[layerWorkload] == 0 || tr.t.timed[layerVM] == 0 || tr.t.timed[layerCtl] == 0 || tr.t.sampled == 0 {
			t.Errorf("%s: a wrapper timed no calls: %v of %v, %d of %d events", w.name, tr.t.timed, tr.t.calls, tr.t.sampled, tr.t.events)
		}
		if tr.wrappedNs() > tr.t.eventNs {
			t.Errorf("%s: wrapped self time %d ns exceeds the sampled events' %d ns", w.name, tr.wrappedNs(), tr.t.eventNs)
		}
	}
}

func TestSeedRepeatsAndDiffers(t *testing.T) {
	w := workloads[0]
	digest := func(seed int64) uint64 {
		res, err := harness.Run(w.spec(seed, shortInstr, w.planes))
		if err := checkRun(res, err); err != nil {
			t.Fatal(err)
		}
		return outcomeOf(res).digest()
	}
	a, b, c := digest(7), digest(7), digest(8)
	if a != b {
		t.Errorf("seed 7 gave digests %016x and %016x", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same digest %016x", a)
	}
}

// TestRunReportsEveryMetric measures a workload in both modes at a short
// length and checks the last line's metric names against BENCHMARK.json.
func TestRunReportsEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, c := range []struct {
		trace int
		want  []string
	}{{0, names(bj.EndToEnd)}, {1, names(bj.PerLayer)}} {
		var out bytes.Buffer
		o := options{seed: 3, budget: time.Millisecond, instr: shortInstr, spansOut: filepath.Join(t.TempDir(), "spans.jsonl")}
		code := measure(workloads[0], o, c.trace, &out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line: %v\n%s", c.trace, err, out.String())
		}
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %d: exit %d, correct %v, %d of %d failed\n%s", c.trace, code, res.Correct, res.Failed, res.Attempted, out.String())
		}
		var got []string
		for k := range res.Metrics {
			got = append(got, k)
		}
		sort.Strings(got)
		sort.Strings(c.want)
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("trace %d: metrics\n%v\nwant\n%v", c.trace, got, c.want)
		}
	}
}

func names(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}
