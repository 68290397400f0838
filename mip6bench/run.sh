#!/usr/bin/env bash
# Builds mip6bench from the checkout it sits in and runs it with the given
# arguments. Run it from the repository root:
#
#   bash mip6bench/run.sh --workload ba-r500-churn --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the toolchain's own state all stay
# under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$(dirname "$0")" && go build -o "$out/mip6bench" .)
exec "$out/mip6bench" "$@"
