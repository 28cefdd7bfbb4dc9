#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload invoke-mem --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# the go command's telemetry) stays in .bench_build/. The toolchain is used
# offline: no module download is needed, since the benchmark imports only
# the standard library and this repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
