#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload cluster-rf2-write --seed 1 --seconds 50 --trace 0
#
# Run it from the root of the checkout. Build output and the Go build cache
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout,
# and nothing is fetched: the benchmark module depends only on the
# repository module next to it.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
