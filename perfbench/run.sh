#!/usr/bin/env bash
# Builds qosrmad and the perfbench program from the source tree, then runs
# perfbench with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload wire-hot --seed 1 --seconds 10 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build
# in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config" "$out/cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$out/bin/qosrmad" ./cmd/qosrmad
(cd perfbench && go build -o "$out/bin/perfbench" .)

commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || true)
exec env PERFBENCH_COMMIT="$commit" "$out/bin/perfbench" -bin "$out/bin" -state "$out/state" "$@"
