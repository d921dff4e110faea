#!/usr/bin/env bash
# Builds the perf benchmark from source and runs it with the given flags, from
# the repository root:
#
#   bash bench/run.sh --workload pipeline-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporaries, Go's user
# configuration, the binary) stays under bench/.build/.
set -euo pipefail

bench="$(cd "$(dirname "$0")" && pwd)"
out="$bench/.build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
# The module has no dependencies outside the repository: never consult a
# proxy, a workspace file or a downloaded toolchain.
export GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd "$bench" && go build -o "$out/perf" ./perf)
exec "$out/perf" "$@"
