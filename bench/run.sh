#!/usr/bin/env bash
# The benchmark's command: builds the harness inside the checkout and
# runs it with the arguments the driver appends
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build and the run write stays under .bench_build/ and
# bench/out/ in the checkout: the Go build cache and its temp directory
# are pointed there, and nothing is fetched from the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
