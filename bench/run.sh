#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload wire-forward --seed 42 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the go
# command's own config and telemetry files, the binary, span files) stays
# under .bench_build in the checkout. No module is ever downloaded: the
# benchmark imports only the standard library and the repository's own
# packages.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
