package harness

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"silcfm/internal/config"
	"silcfm/internal/telemetry"
)

// failingWriter rejects every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// settleGoroutines waits briefly for the goroutine count to fall back to
// want: a producer that has signalled its exit may not have been reaped.
// Only a count above want is a leak; goroutines left by earlier tests may
// exit meanwhile and take it below.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunLeavesNoGoroutines checks that every reference-stream producer
// Run starts has exited by the time it returns, on success and on an
// error returned after the simulation ran.
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	s := tinySpec(config.SchemeSILCFM, "milc")
	s.InstrPerCore = 20_000
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("success path: %d goroutines after Run, %d before", n, base)
	}

	s.Telemetry = &telemetry.Config{TraceW: failingWriter{}}
	if _, err := Run(s); err == nil {
		t.Fatal("a failing trace writer did not fail the run")
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("error path: %d goroutines after Run, %d before", n, base)
	}
}
