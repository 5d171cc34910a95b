#!/usr/bin/env bash
# Builds the mittperf benchmark from source and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload fleet-get --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the repository root, and the build never
# touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/mittperf" ./bench/mittperf
exec "$out/mittperf" "$@"
