#!/usr/bin/env bash
# Builds platformd and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-burst --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under $CARGO_TARGET_DIR (default .bench_build), including the Go build
# cache, so a checkout is self-contained.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
mkdir -p "$GOTMPDIR"

go build -o "$out/platformd" ./cmd/platformd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -platformd "$out/platformd" -out "$out" "$@"
