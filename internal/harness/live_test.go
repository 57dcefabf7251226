package harness

import (
	"errors"
	"reflect"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/live"
)

// TestLiveSweepStreamsBundlesAndExemplars: a live-attached sweep of the
// thrash cell (SILC-FM, 8 MiB NM / 32 MiB FM, milc footprint ÷16) delivers
// every bundle and the final exemplar snapshot of each run to the hub, and
// marks every run done with its incidents.
func TestLiveSweepStreamsBundlesAndExemplars(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := config.Default()
	m.NM = config.HBM(8 << 20)
	m.FM = config.DDR3(32 << 20)
	sw, err := Sweep(ExpConfig{
		Machine:      m,
		InstrPerCore: 100_000,
		Workloads:    []string{"milc"},
		FootScaleNum: 1,
		FootScaleDen: 16,
		Parallelism:  1,
		Live:         srv,
	}, []Variant{SchemeVariant(config.SchemeSILCFM)})
	if err != nil {
		t.Fatal(err)
	}
	res := sw.Runs[string(config.SchemeSILCFM)]["milc"]
	if len(res.Bundles) == 0 || len(res.Exemplars) == 0 {
		t.Fatalf("thrash cell produced %d bundles and %d exemplars", len(res.Bundles), len(res.Exemplars))
	}
	reg := srv.Registry()
	const id = "silc/milc"
	var hubBundles int
	for _, ref := range reg.Incidents() {
		if ref.Run != id {
			t.Errorf("bundle %d arrived under run %q, want %q", ref.ID, ref.Run, id)
			continue
		}
		if b := reg.Bundle(ref.ID); !reflect.DeepEqual(*b, res.Bundles[hubBundles]) {
			t.Errorf("hub bundle %d differs from the run's bundle", ref.ID)
		}
		hubBundles++
	}
	if hubBundles != len(res.Bundles) {
		t.Errorf("hub holds %d bundles, run produced %d", hubBundles, len(res.Bundles))
	}
	var hubExemplars int
	for _, set := range reg.Exemplars() {
		if set.Run == id {
			hubExemplars = len(set.Exemplars)
			if !reflect.DeepEqual(set.Exemplars, res.Exemplars) {
				t.Error("hub exemplar snapshot differs from the run's exemplars")
			}
		}
	}
	if hubExemplars == 0 {
		t.Errorf("hub holds no exemplars for %s", id)
	}
	runs := reg.Runs()
	if len(runs) != 2 {
		t.Fatalf("hub lists %d runs, want baseline and silc", len(runs))
	}
	for _, r := range runs {
		if r.State != "done" {
			t.Errorf("run %s is %q, want done", r.Run, r.State)
		}
		if r.Run == id && r.TotalIncidents != len(res.Health) {
			t.Errorf("run %s reports %d incidents, want %d", r.Run, r.TotalIncidents, len(res.Health))
		}
	}
}

// TestLiveRunMarkedDoneOnError: a run that fails in setup or after its
// event loop still marks its hub run done, so the dashboard never shows a
// dead run as running.
func TestLiveRunMarkedDoneOnError(t *testing.T) {
	reg := live.NewRegistry()
	badMachine := tinySpec(config.SchemeSILCFM, "milc")
	badMachine.Machine.Cores = 0
	oversized := tinySpec(config.SchemeSILCFM, "mcf")
	oversized.FootScaleNum, oversized.FootScaleDen = 4, 1
	traceFails := tinySpec(config.SchemeSILCFM, "milc")
	traceFails.InstrPerCore = 20_000
	traceFails.Telemetry = &telemetry.Config{TraceW: failingWriter{}}
	for id, spec := range map[string]Spec{
		"invalid-machine":  badMachine,
		"unknown-workload": tinySpec(config.SchemeSILCFM, "nope"),
		"unknown-scheme":   tinySpec("nope", "milc"),
		"over-capacity":    oversized,
		"trace-write":      traceFails,
	} {
		spec.Live = reg.Run(id)
		if _, err := Run(spec); err == nil {
			t.Fatalf("%s: Run accepted a bad spec", id)
		}
	}
	runs := reg.Runs()
	if len(runs) != 5 {
		t.Fatalf("hub lists %d runs, want 5", len(runs))
	}
	for _, r := range runs {
		if r.State != "done" {
			t.Errorf("failed run %s is %q, want done", r.Run, r.State)
		}
	}
}

// TestResultErrJoinsVerdicts: Err is nil for a clean run and names every
// failed verdict otherwise.
func TestResultErrJoinsVerdicts(t *testing.T) {
	if err := (&Result{}).Err(); err != nil {
		t.Fatalf("clean result: Err = %v", err)
	}
	audit, cons := errors.New("subblock 7 lost"), errors.New("bytes leaked")
	err := (&Result{AuditErr: audit, ConservationErr: cons}).Err()
	if !errors.Is(err, audit) || !errors.Is(err, cons) {
		t.Fatalf("Err = %v, want both verdicts wrapped", err)
	}
	want := "data-integrity audit failed: subblock 7 lost\ncounter-conservation audit failed: bytes leaked"
	if err.Error() != want {
		t.Errorf("Err = %q, want %q", err, want)
	}
}
