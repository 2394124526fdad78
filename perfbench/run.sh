#!/usr/bin/env bash
# Builds the benchmark harness and svfd from the checkout this is run in,
# then runs the harness with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload sweep-timing --seed 1 --seconds 15 --trace 0
#
# Every build product and scratch file stays under .bench_build/ (the Go
# build cache included), so the first run compiles and later runs reuse it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/svfd" svf/cmd/svfd) >&2
exec "$out/perfbench" -svfd "$out/svfd" "$@"
