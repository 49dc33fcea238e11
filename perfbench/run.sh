#!/usr/bin/env bash
# Builds the perfbench command from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 20 --trace 0
#
# Must be started from the repository root. Every build artifact (the Go
# build cache included) stays under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -d perfbench ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
# The go command's own config and telemetry counters live under the user
# config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOWORK=off

go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
