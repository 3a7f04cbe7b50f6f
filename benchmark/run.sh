#!/bin/sh
# Builds the benchmark from source and runs it; every argument is passed on.
#
#   sh benchmark/run.sh --workload fig6-ptguard --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and every scratch file stay inside the
# repository, under .bench_build; XDG_CONFIG_HOME keeps the go command's
# telemetry counters there too.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$root/benchmark" && go build -o "$out/ptguard-benchmark" .)
exec "$out/ptguard-benchmark" -out "$out" "$@"
