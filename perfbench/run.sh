#!/usr/bin/env bash
# Builds perfbench from this checkout's source and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload apps --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ at the repository root, so a run reads and writes nothing
# outside the checkout. It needs the Go toolchain and no network.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # go env file and telemetry counters
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
