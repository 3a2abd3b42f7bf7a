#!/usr/bin/env bash
# Repeats one workload over seeds 1..runs at BENCHMARK.json's run length
# and prints each metric's median, quartiles and spread. Run it from the
# repository root:
#
#   bash e2ebench/repeat.sh --workload cluster-dblp --runs 10
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

(cd e2ebench && go build -o "$out/repeat" ./repeat)
exec "$out/repeat" "$@"
