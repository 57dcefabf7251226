#!/bin/sh
# Local CI gate: formatting, vet, build, bench-smoke regression diff,
# live-observability endpoint checks, and the test suite under the race
# detector. Run from the repo root. Each stage also runs on its own; the
# CI workflow calls every stage exactly once.
#
#   ./ci.sh          # every stage below, in this order
#   ./ci.sh fast     # gofmt, then vet + race-test the fast-fail packages
#   ./ci.sh bench    # only the bench-smoke + manifest-diff stage
#   ./ci.sh perf     # only the perf-regression stage (speed/alloc bands)
#   ./ci.sh live     # only the live-server endpoint stage
#   ./ci.sh postmortem # only the flight-recorder capture/render/determinism stage
#   ./ci.sh exemplars # only the tail-exemplar capture/determinism stage
#   ./ci.sh history  # only the cross-PR trajectory-report stage
#   ./ci.sh perfbench # only the repo benchmark's own vet + tests
#   ./ci.sh test     # vet, build and race-test the whole module
set -eu

# Bench-smoke stage: rerun the short manifest suite and diff its
# deterministic counters against the committed trajectory baseline. Any
# counter drift fails here in seconds — a whole-system correctness tripwire
# that runs before the slow race-detector suite. Host-timing metrics are
# skipped (-noise 0): the baseline was produced on a different machine.
bench_smoke() {
	go build -o /tmp/silcfm-bench ./cmd/silcfm-bench
	/tmp/silcfm-bench -short -quiet -out /tmp/bench_smoke.json
	/tmp/silcfm-bench -diff -subset -noise 0 BENCH_PR10.json /tmp/bench_smoke.json
}

# Perf-regression stage: rerun the short suite best-of-5 and gate the
# direction-aware host metrics against the committed PR6 baseline. The speed
# band is generous (-speed-noise 0.6: CI machines differ and host timing
# jitters ±50% even best-of-5) — it exists to catch order-of-magnitude
# regressions like an allocation or scan creeping back into the inner loop,
# not 10% wobbles. The alloc band is tight (-alloc-noise 0.25): steady-state
# allocation counts are nearly deterministic, so any real leak trips it.
# -noise 0 still skips wall_seconds, and sim counters stay exact as always.
perf_gate() {
	go build -o /tmp/silcfm-bench ./cmd/silcfm-bench
	/tmp/silcfm-bench -short -quiet -reps 5 -out /tmp/bench_perf.json
	/tmp/silcfm-bench -diff -subset -noise 0 -speed-noise 0.6 -alloc-noise 0.25 \
		BENCH_PR10.json /tmp/bench_perf.json
}

# Live-observability stage: run a short simulation with the embedded HTTP
# server and validate the dashboard, /api/runs, /events, /metrics,
# /healthz and /progress while it lingers. The hub's inertness (with three
# draining SSE subscribers) is proven by manifest's TestPlanesAreInert.
live_smoke() {
	go build -o /tmp/silcfm-sim ./cmd/silcfm-sim
	go build -o /tmp/livecheck ./internal/tools/livecheck
	rm -f /tmp/live_on.json /tmp/live_stderr.log
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-listen 127.0.0.1:0 -listen-linger 60s \
		-manifest-out /tmp/live_on.json >/dev/null 2>/tmp/live_stderr.log &
	sim_pid=$!
	trap 'kill $sim_pid 2>/dev/null || true' EXIT
	# The sim announces "live: http://ADDR" on stderr at startup and writes
	# the manifest when the run completes (the server then lingers).
	url=""
	for _ in $(seq 1 300); do
		url=$(sed -n 's/^live: //p' /tmp/live_stderr.log 2>/dev/null | head -1)
		[ -n "$url" ] && [ -s /tmp/live_on.json ] && break
		url=""
		sleep 0.1
	done
	if [ -z "$url" ]; then
		echo "live_smoke: server never came up or run never finished" >&2
		cat /tmp/live_stderr.log >&2
		exit 1
	fi
	/tmp/livecheck "$url"
	kill $sim_pid 2>/dev/null || true
	wait $sim_pid 2>/dev/null || true
	trap - EXIT
}

# Postmortem stage: run a thrashy configuration that opens incidents, and
# prove the flight recorder's contracts end to end: (1) it captures — a
# bundle file appears and silcfm-postmortem renders a report naming the
# trigger; (2) it is deterministic — a repeat run produces a byte-identical
# bundle. Its inertness is proven by manifest's TestPlanesAreInert.
postmortem_smoke() {
	go build -o /tmp/silcfm-sim ./cmd/silcfm-sim
	go build -o /tmp/silcfm-postmortem ./cmd/silcfm-postmortem
	rm -rf /tmp/pm_a /tmp/pm_b
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-postmortem-out /tmp/pm_a >/dev/null
	if [ ! -s /tmp/pm_a/bundle-000.json ]; then
		echo "postmortem_smoke: thrash config produced no bundle" >&2
		exit 1
	fi
	/tmp/silcfm-postmortem -o /tmp/pm_report.md /tmp/pm_a
	grep -q '^# Postmortem: ' /tmp/pm_report.md
	grep -q 'Evidence window' /tmp/pm_report.md
	# Determinism: an identical rerun must reproduce every bundle byte.
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-postmortem-out /tmp/pm_b >/dev/null
	for f in /tmp/pm_a/bundle-*.json; do
		cmp "$f" "/tmp/pm_b/$(basename "$f")"
	done
}

# Tail-exemplar stage: run the capacity-pressured thrash configuration and
# prove the exemplar recorder's contracts end to end: (1) it captures — the
# printed report closes with a "tail exemplars:" waterfall and
# -exemplars-out writes the worst-K records as JSONL; (2) it is
# deterministic — an identical rerun reproduces the JSONL byte-for-byte.
# Its inertness is proven by manifest's TestPlanesAreInert.
exemplars_smoke() {
	go build -o /tmp/silcfm-sim ./cmd/silcfm-sim
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-exemplars-out /tmp/ex_a.jsonl >/tmp/ex_report.txt
	grep -q '^tail exemplars:' /tmp/ex_report.txt
	grep -q 'max=' /tmp/ex_report.txt
	if [ ! -s /tmp/ex_a.jsonl ]; then
		echo "exemplars_smoke: run captured no exemplars" >&2
		exit 1
	fi
	# Determinism: an identical rerun must reproduce every JSONL byte.
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-exemplars-out /tmp/ex_b.jsonl >/dev/null
	cmp /tmp/ex_a.jsonl /tmp/ex_b.jsonl
}

# Trajectory stage: regenerate the cross-PR trajectory report from the
# committed BENCH_PR*.json baselines and require it to match the committed
# TRAJECTORY.md byte-for-byte. The report is a pure function of the input
# manifests, so any drift means either the baselines changed without the
# report (regenerate it) or the report generator changed behavior.
history_smoke() {
	go build -o /tmp/silcfm-bench ./cmd/silcfm-bench
	/tmp/silcfm-bench -history -history-md /tmp/trajectory.md 'BENCH_PR*.json' >/dev/null
	if ! diff -u TRAJECTORY.md /tmp/trajectory.md; then
		echo "history_smoke: TRAJECTORY.md is stale; regenerate with:" >&2
		echo "  go run ./cmd/silcfm-bench -history -history-md TRAJECTORY.md 'BENCH_PR*.json'" >&2
		exit 1
	fi
	# Explicit ordered paths must agree with the glob expansion.
	/tmp/silcfm-bench -history BENCH_PR4.json BENCH_PR5.json BENCH_PR6.json BENCH_PR9.json BENCH_PR10.json >/tmp/trajectory_explicit.md
	diff -u TRAJECTORY.md /tmp/trajectory_explicit.md
}

# Benchmark stage: perfbench/ is a Go module of its own, so the root
# module's vet and tests never reach it. Vet it and run its tests (metric
# names match BENCHMARK.json, the traced run's digest equals the untraced
# one, seeds repeat, every metric is reported) against this checkout.
perfbench_tests() {
	(cd perfbench && go vet ./... && go test ./...)
}

# Fast-fail stage: gofmt, then the observability packages (stats counters,
# memory-system events and attribution, manifest encoding and the
# plane-inertness table, telemetry writers, health detector, live server,
# flight recorder, shadow checker) and the hot-path packages every run
# crosses (event engine, DRAM scheduler, the concurrent reference-stream
# prefetcher). They gate everything downstream and their tests are quick —
# vet and race-test them first so a broken layer fails in seconds, not
# after the full sweep-driven suite.
fast_checks() {
	fmt=$(gofmt -l .)
	if [ -n "$fmt" ]; then
		echo "gofmt: files need formatting:" >&2
		echo "$fmt" >&2
		exit 1
	fi
	pkgs="./internal/stats ./internal/mem ./internal/telemetry ./internal/manifest
		./internal/health ./internal/telemetry/live ./internal/telemetry/exemplar
		./internal/flightrec ./internal/shadow ./internal/dram ./internal/sim
		./internal/workload"
	# $pkgs stays unquoted: it splits into one argument per package.
	go vet $pkgs
	go test -race $pkgs
}

# Full-suite stage: vet and build every package, then run the whole test
# suite under the race detector.
full_tests() {
	go vet ./...
	go build ./...
	go test -race ./...
}

case "${1:-all}" in
fast) fast_checks ;;
bench) bench_smoke ;;
perf) perf_gate ;;
live) live_smoke ;;
postmortem) postmortem_smoke ;;
exemplars) exemplars_smoke ;;
history) history_smoke ;;
perfbench) perfbench_tests ;;
test) full_tests ;;
all)
	fast_checks
	bench_smoke
	perf_gate
	live_smoke
	postmortem_smoke
	exemplars_smoke
	history_smoke
	perfbench_tests
	full_tests
	;;
*)
	echo "ci.sh: unknown stage '$1'" >&2
	exit 2
	;;
esac
