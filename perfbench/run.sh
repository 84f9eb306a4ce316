#!/usr/bin/env bash
# Builds lincountd and perfbench from the checkout's sources, then
# runs perfbench. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload tc-read --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and every run's files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/lincountd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a lincount checkout (go.mod, cmd/lincountd and perfbench/ are missing)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
# The build must not fail for lack of network: the module has no
# dependencies outside the standard library.
export GOPROXY=off GOSUMDB=off

go build -o "$out/bin/lincountd" ./cmd/lincountd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -lincountd "$out/bin/lincountd" -work "$out/perfbench" "$@"
