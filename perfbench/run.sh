#!/usr/bin/env bash
# Builds rmsserve and the benchmark from the checkout it is run in, then runs
# the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare OLD_DIR [NEW_DIR]
#
# Everything it builds or writes goes under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rmsserve" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root: no rmsserve source here" >&2
	exit 2
fi

build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
# The go command keeps its config and telemetry under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$build/bin"
(
	cd "$root/perfbench"
	go build -o "$build/bin/rmsserve" fdrms/cmd/rmsserve
	go build -o "$build/bin/perfbench" .
)

if [ "${1:-}" = compare ]; then
	exec "$build/bin/perfbench" "$@"
fi
exec "$build/bin/perfbench" -server "$build/bin/rmsserve" -work "$build/perfbench" "$@"
