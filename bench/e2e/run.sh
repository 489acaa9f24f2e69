#!/usr/bin/env bash
# Builds bench_e2e from this checkout's sources into .bench_build/e2e (once;
# later calls rebuild only what changed), then runs it with the given
# arguments, e.g.
#
#   bash bench/e2e/run.sh --workload train-small --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/e2e"
jobs="$(nproc 2>/dev/null || echo 1)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
# Keep the compiler's temporary files inside the build tree too.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"

cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$jobs" --target bench_e2e >&2
exec "$build/bench_e2e" "$@"
