#!/usr/bin/env bash
# Builds the benchmark and flatd from this checkout's sources, then runs
# one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Every build output, the Go build
# cache and the toolchain's scratch files stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTELEMETRY=off GOTOOLCHAIN=local

go build -o "$out/bin/flatd" ./cmd/flatd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --flatd "$out/bin/flatd" "$@"
