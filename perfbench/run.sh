#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it:
#
#   bash perfbench/run.sh --workload gnp-cold --seed 1 --seconds 36 --trace 0
#
# Run from the repository root. Every build artifact, the Go build cache
# and the traced run's span files stay under .bench_build in that root,
# so the benchmark writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/home/go"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOTELEMETRY=off
export CGO_ENABLED=0

go build -C "$root/perfbench" -trimpath -o "$out/perfbench" .
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
