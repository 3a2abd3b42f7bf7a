#!/usr/bin/env bash
# Builds sketchtreed and the benchmark binary from this checkout's
# sources, then runs one benchmark run:
#
#   bash e2ebench/run.sh --workload snapshot-treebank --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands
# under .bench_build/e2ebench (the Go build cache too), so a run reads
# and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

go build -o "$out/sketchtreed" ./cmd/sketchtreed
(cd e2ebench && go build -o "$out/e2ebench" .)

# exec: signals sent to this script reach the benchmark binary directly,
# and it owns (and stops) every daemon it starts.
exec "$out/e2ebench" -daemon "$out/sketchtreed" -workdir "$out" -root "$root" "$@"
