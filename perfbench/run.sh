#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload adhoc --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build output, the Go build cache and the
# toolchain's own config and telemetry files, spill files and span dumps all
# stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
