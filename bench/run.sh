#!/usr/bin/env bash
# Builds vidbench from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload vod-stream --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and the working files of a run.
# The build fails (and nothing is run) when the simulator's module is not
# next to bench/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# Everything the build needs is in the checkout: never fetch a module or a
# toolchain.
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$out/vidbench" ./vidbench)
exec "$out/vidbench" "$@"
