#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload papi-pcp-read --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build and module caches, the go command's own
# config and telemetry files, and written traces all stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build). The build
# uses only the checkout's sources and never the network (GOPROXY=off).
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd perfbench && go build -trimpath -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
