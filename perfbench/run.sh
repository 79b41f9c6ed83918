#!/usr/bin/env bash
# Builds the benchmark from the source in the current directory and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload protect --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own
# settings) stays under .bench_build in the current directory. Without
# the repository's source next to perfbench/ the build fails and the
# script exits nonzero before printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
