#!/bin/sh
# Builds the benchmark from source and runs it; see bench/README.md.
# Everything the Go toolchain writes (build cache, work directories,
# telemetry) is kept under bench/out, so a run touches nothing outside
# the checkout.
set -e
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out/bin" "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
