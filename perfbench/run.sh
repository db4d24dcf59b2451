#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, temp files) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"

# The go command keeps its caches and telemetry counters under the user's
# home by default; point all of them into the build directory.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
