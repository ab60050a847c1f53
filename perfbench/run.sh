#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on to the benchmark binary:
#
#	bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 25 --trace 0
#
# Build outputs (binary, Go build cache, span files) stay under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

# Everything the toolchain writes stays under $out: build cache, module
# cache, temporary files, and the config directory local telemetry uses.
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export GOENV=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
