#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload silc-mcf-swap --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write (Go
# build cache and temporary files, the go command's telemetry under
# XDG_CONFIG_HOME, the binary, span files) stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
	GOSUMDB=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
cd "$root"
exec "$out/bin/perfbench" "$@"
