#!/usr/bin/env bash
# Builds the host-time benchmark from the source tree it sits in and runs
# it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all
#
# Everything the build and the run write (Go build cache, binary, span
# files, fleet translation caches) goes under .bench_build/ at the root of
# the tree. The build fails, and no result is printed, when the tree does
# not hold the daisy module beside this directory.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)

rev=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null; then
	rev="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

cd "$root"
exec "$build/perfbench" --out "$build" --rev "$rev" "$@"
