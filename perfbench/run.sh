#!/usr/bin/env bash
# Build the simulator and the benchmark from source, then run one
# measurement. Run from the root of a source tree:
#
#   bash perfbench/run.sh --workload compute --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail

cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# Keep every build artefact inside the tree (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . -j 2 perfbench/main.exe bin/pm2simd.exe 1>&2

# Pin the benchmark, and so the pm2simd daemon it launches, to the first
# CPU it may use. The ctl client and daemon then hand requests back and
# forth on one core, and their timings stop depending on where the
# scheduler happened to place the two processes.
pin=()
if command -v taskset >/dev/null 2>&1; then
  cpus=$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//')
  first=${cpus%%[,-]*}
  if [ -n "$first" ] && taskset -c "$first" true 2>/dev/null; then
    pin=(taskset -c "$first")
  fi
fi
exec "${pin[@]}" ./_build/default/perfbench/main.exe \
  --daemon ./_build/default/bin/pm2simd.exe --run-dir .perfbench_run "$@"
