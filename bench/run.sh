#!/usr/bin/env bash
# What BENCHMARK.json's command runs: build the harness from source and run
# it with the driver's arguments. Everything the go tool writes (build cache,
# temp files, the binary) goes under bench/out/, because a run may read and
# write only inside its checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp"
go build -o out/bin/bench .
exec out/bin/bench "$@"
