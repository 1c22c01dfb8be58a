#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload kv-hot --seed 1 --seconds 30 --trace 0
#
# The binary and the Go build cache live under .bench_build/ at the root of
# the checkout; nothing is fetched. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spec "$root/BENCHMARK.json" "$@"
