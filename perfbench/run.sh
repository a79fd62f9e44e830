#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload t2_mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off GOWORK=off \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
