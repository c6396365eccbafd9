#!/usr/bin/env bash
# Builds steerbench from this checkout's sources into build-bench/ at the
# checkout root (the first call builds the library; later calls rebuild
# only what changed), then runs it with the given arguments:
#
#   bash bench/e2e/steerbench.sh --workload sim_phased --seed 1 --trace 0
#   bash bench/e2e/steerbench.sh compare PARENT_DIR CHANGE_DIR
#
# Build output goes to stderr, so steerbench's result stays the last line
# of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "steerbench: no steersim sources at $root" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then
  jobs=4  # bounds the compilers' memory
fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" >&2
fi
cmake --build "$build" --target steerbench -j "$jobs" >&2
exec "$build/steerbench" "$@"
