#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 45 --trace 0
#
# Build outputs, the Go build cache and the go command's own config and
# telemetry directory live under .bench_build/ in the checkout, so the
# benchmark writes nothing outside it.
set -euo pipefail

if [[ ! -f go.mod || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
