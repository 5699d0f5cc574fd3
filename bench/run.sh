#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh --workload corridor --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and serve2's sockets live in .bench_build/
# at the root, so a run reads and writes nothing outside the checkout.
# Without the simulator's sources beside bench/ the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off

go -C "$root/bench" build -o "$out/wgtt-bench" .
cd "$root"
# Relative socket paths stay under the 108-byte unix socket limit.
exec "$out/wgtt-bench" -work .bench_build "$@"
