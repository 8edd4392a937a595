#!/usr/bin/env bash
# Builds the dexa end-to-end benchmark from source and runs it. Run it from
# the root of a dexa checkout:
#
#   bash e2ebench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every scratch file the benchmark writes
# stay under .bench_build/ in the checkout. A failed build exits non-zero
# before anything is printed on standard output.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C e2ebench build -buildvcs=false -o "$out/dexa-e2ebench" . 1>&2
exec "$out/dexa-e2ebench" "$@"
