#!/usr/bin/env bash
# Builds gill-daemon from the tree under test and the benchmark program,
# then runs one benchmark run. Run from the repository root:
#
#   bash daemonbench/run.sh --workload table-transfer --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory (Go's build cache included).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/daemonbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go build -o "$out/gill-daemon" ./cmd/gill-daemon 1>&2
(cd "$root/daemonbench" && go build -o "$out/daemonbench" .) 1>&2
exec "$out/daemonbench" -daemon "$out/gill-daemon" -work "$out" -src "$root" "$@"
