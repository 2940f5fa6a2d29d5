#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload cold|resume|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write
# (compiler cache, binary, scratch corpora, span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
