#!/usr/bin/env bash
# Builds the benchmark against the remspan sources of the enclosing
# checkout and runs it with the given arguments, from the checkout root:
#
#   bash cmd/bench/run.sh --workload fleet-churn --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, Go config) stays under
# .bench_build/ in the checkout. Without the remspan sources two levels
# up the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/modcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$root/cmd/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
