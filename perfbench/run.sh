#!/bin/sh
# run.sh builds dimsatd and the benchmark from the checkout it is run in
# and runs one benchmark pass. Run it from the repository root:
#
#   sh perfbench/run.sh --workload hot-mix --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -eu
if [ ! -f go.mod ] || [ ! -d cmd/dimsatd ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the repository root (go.mod, cmd/dimsatd and perfbench/ are needed)" >&2
    exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/modcache" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C perfbench build -o "$out/bin/perfbench" .
go -C perfbench build -o "$out/bin/dimsatd" olapdim/cmd/dimsatd
exec "$out/bin/perfbench" -dimsatd "$out/bin/dimsatd" -workdir "$out" "$@"
