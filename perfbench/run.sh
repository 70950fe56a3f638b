#!/usr/bin/env bash
# Builds the benchmark, regiongrowd and regiongrow-gateway from the
# checkout it is run in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload serve-mix --seed 3 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache,
# stream spools and trace spans stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/regiongrowd ]; then
	echo "perfbench: run from the repository root; no regiongrow module here" >&2
	exit 2
fi
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/gocache"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$build/bin/regiongrowd" ./cmd/regiongrowd
go build -o "$build/bin/regiongrow-gateway" ./cmd/regiongrow-gateway
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --bin "$build/bin" --tmp "$build/tmp" "$@"
