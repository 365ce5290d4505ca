#!/usr/bin/env bash
# Builds the pvsim benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload run-pv8 --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. --workload all runs every workload, each in
# its own process, and prints one result line per workload. The build, its
# cache, span dumps and the result ledger stay under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory.
set -u

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" || exit 1

if ! (cd "$here" && GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOFLAGS= go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" -out "$out" "$@"
