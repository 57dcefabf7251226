package main

import (
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/harness"
	"silcfm/internal/telemetry/live"
)

// TestRunCellMarksFailedRunDone: a bench cell whose run fails still ends
// done on the live hub instead of showing as running forever.
func TestRunCellMarksFailedRunDone(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := suiteMachine()
	m.Scheme = config.SchemeSILCFM
	spec := harness.Spec{Machine: m, Workload: "no-such-benchmark", InstrPerCore: 1000}
	if _, _, err := runCell("silc/none", spec, 1, srv); err == nil {
		t.Fatal("runCell accepted an unknown workload")
	}
	runs := srv.Registry().Runs()
	if len(runs) != 1 || runs[0].State != "done" {
		t.Fatalf("hub runs = %+v, want silc/none done", runs)
	}
}
