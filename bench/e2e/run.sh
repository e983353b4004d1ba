#!/usr/bin/env bash
# Builds purecc and the e2e_bench harness from this checkout (into
# .bench_build/ at the repository root), then runs e2e_bench from the
# root with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload classic_kernels --seed 7 --seconds 10
#   bash bench/e2e/run.sh --workload all --out /tmp/a.json
#
# Build output goes to stderr, so e2e_bench's last stdout line stays its
# JSON result. A checkout without the compiler sources fails the build and
# exits nonzero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/e2e"
jobs="$(nproc)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target e2e_bench -j "$jobs" >&2

cd "$root"
exec "$build/e2e_bench" --work "$root/.bench_build/e2e_work" "$@"
