// Package live is the simulator's fleet observability hub: an HTTP-free
// run Registry at the core, with an opt-in embedded HTTP Server
// (silcfm-sim/-experiments/-bench -listen) as a thin view over it.
//
//	/           embedded zero-dependency HTML dashboard: sweep progress
//	            tree, fleet aggregate tiles, per-run sparklines, live over
//	            /events with an /api/runs polling fallback.
//	/api/runs   fleet aggregates plus every run's status as JSON, id-ordered.
//	/events     SSE stream: one init snapshot, then per-epoch snapshots and
//	            incident open/close transitions as they happen.
//	/metrics    Prometheus text exposition: every stats.Memory counter,
//	            scheme gauges, queue depths, per-path demand-latency
//	            percentiles labeled by run id, plus unlabeled
//	            silcfm_fleet_* aggregate families.
//	/healthz    open health incidents as JSON; non-200 while any run has
//	            an active incident.
//	/progress   per-run sweep status with instruction progress, host-side
//	            simulation rate, elapsed wall time and wall-clock ETA.
//	/debug/pprof/...  the standard net/http/pprof profiles.
//
// A run attaches through one handle: the caller registers it with
// Server.Run or Registry.Run and installs the returned *Run as
// harness.Spec.Live. harness.Run then publishes one snapshot per telemetry
// epoch, streams each finalized postmortem bundle and each epoch's
// tail-exemplar snapshot, and marks the run done with its incidents on
// every return path. Snapshots are taken under a short mutex; readers see
// value copies under the same mutex and never touch live simulation state,
// and event fan-out uses bounded per-subscriber queues that drop-and-count
// rather than block. The hot loop therefore never waits on a slow client,
// and cycles/counters/incidents are provably unchanged with the hub on or
// off (asserted by internal/manifest's TestPlanesAreInert).
package live

import "strings"

// escapeLabel escapes a Prometheus label value. Callers splice the result
// directly between literal quotes — never re-quote it with %q, which would
// double-escape the backslashes added here.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
