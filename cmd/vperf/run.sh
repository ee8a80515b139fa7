#!/usr/bin/env bash
# Builds vperf from source and runs it from the repository root with the
# given arguments, e.g.
#
#   bash cmd/vperf/run.sh --workload fleet-onoff --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, the user config directory (where the
# toolchain keeps its telemetry setting) and every temporary file (build
# work directories, CPU profiles) live under .bench_build/ in the
# repository root, so a run writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on, the go command may leave an upload process running
# after it exits.
go telemetry off
go build -buildvcs=false -o "$build/vperf" ./cmd/vperf
exec "$build/vperf" "$@"
