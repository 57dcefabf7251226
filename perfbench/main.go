// Command perfbench is the repository benchmark: it runs one workload of
// the SILC-FM simulator through the public API in this process, one
// simulation at a time, checks every output, and prints end-to-end metrics
// (--trace 0) or per-layer metrics from a traced pass (--trace 1). The last
// line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. README.md describes the workloads and the
// metrics.
//
//	bash perfbench/run.sh --workload silc-mcf-swap --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload silc-mcf-swap --seed 1 --seconds 30 --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"silcfm/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// spansPath is where the traced pass writes its span sample, by workload
// and seed, relative to the repository root.
const spansPath = ".bench_build/spans/%s-seed%d.jsonl"

// options are the settings of one invocation.
type options struct {
	seed     int64
	budget   time.Duration
	instr    uint64 // instructions per core; 0 keeps the workload's length
	spansOut string // the traced pass's span file
}

// run parses the command line and measures one workload.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed: the machine and generator seed of every run")
	seconds := fs.Float64("seconds", 30, "host seconds of timed runs to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from the traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", *name, workloadNames())
		return 2
	}
	o := options{
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		spansOut: fmt.Sprintf(spansPath, w.name, *seed),
	}
	return measure(w, o, *trace, stdout)
}

// measure runs workload w in the given trace mode, prints its report and
// the result line, and returns the exit code.
func measure(w benchWorkload, o options, trace int, stdout io.Writer) int {
	rep := &report{}
	want := endToEndMetrics
	if trace == 0 {
		endToEnd(w, o, rep)
	} else {
		perLayer(w, o, rep)
		want = perLayerMetrics
	}
	rep.requireAll(want)
	rep.print(stdout, w, o.seed, trace)
	metrics := map[string]jsonMetric{}
	for _, m := range rep.metrics {
		metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintln(stdout, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.failed != 0 {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported number; n is how many samples its value reduces
// (a median's run count, or 1).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

// report collects one workload's metrics and failures.
type report struct {
	attempted, failed int
	errs              []error
	metrics           []metric
}

// add records a declared metric (see metrics.go). A value with no defined
// result, such as a rate over zero events, reads 0.
func (r *report) add(name string, value float64, n int, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, unitOf(name), value, n, note})
}

// check counts one attempted operation and records err as its failure.
func (r *report) check(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.errs = append(r.errs, err)
		return false
	}
	return true
}

// requireAll fails the workload when a metric of its mode is missing, so a
// result never silently lacks one.
func (r *report) requireAll(defs []metricDef) {
	have := map[string]bool{}
	for _, m := range r.metrics {
		have[m.name] = true
	}
	for _, d := range defs {
		if !have[d.name] {
			r.check(fmt.Errorf("metric %s not measured", d.name))
		}
	}
}

func (r *report) print(w io.Writer, wl benchWorkload, seed int64, trace int) {
	fmt.Fprintf(w, "perfbench %s (%s on %s, seed %d, trace %d): %d attempted, %d failed, failed_frac %.4g\n",
		wl.name, wl.scheme, wl.bench, seed, trace, r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	for _, e := range r.errs {
		fmt.Fprintf(w, "  FAIL %v\n", e)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-36s %14.6g %-14s n=%-3d %s\n", m.name, m.value, m.unit, m.n, m.note)
	}
}

// runChecked runs spec and applies every correctness check: the harness
// error and audits, the workload's liveness, and, when want is nonzero,
// equality of the simulated digest with want.
func runChecked(w benchWorkload, spec harness.Spec, want uint64) (*harness.Result, uint64, error) {
	res, err := harness.Run(spec)
	if err = checkRun(res, err); err != nil {
		return nil, 0, err
	}
	if err := w.live(res); err != nil {
		return nil, 0, fmt.Errorf("liveness: %w", err)
	}
	d := outcomeOf(res).digest()
	if want != 0 && d != want {
		return nil, 0, fmt.Errorf("digest %016x differs from the first run's %016x", d, want)
	}
	return res, d, nil
}

// loopSeconds is the host time of a run's event loop.
func loopSeconds(r *harness.Result) float64 { return float64(r.Cycles) / r.SimCyclesPerSec }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func spreadNote(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("median of %d runs, min %.4g max %.4g", len(s), s[0], s[len(s)-1])
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
