#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the root of the repository:
#
#	bash perfbench/run.sh --workload callstream --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) and every result or flight record the run writes stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
export GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
