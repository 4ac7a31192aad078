#!/usr/bin/env bash
# Builds the benchmark and the lotteryd daemon from this checkout's
# sources, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload churn512 --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the go command's own config
# and telemetry files live in .bench_build/; run records and trace
# files in .bench_out/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/lotteryd ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/lotteryd here)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

go build -o "$build/lotteryd" ./cmd/lotteryd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -daemon "$build/lotteryd" "$@"
