#!/usr/bin/env bash
# Build the daemon and the benchmark from source (release profile, into
# _perfbench/build) and run one workload; see perfbench/README.md.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
mkdir -p _perfbench
DUNE_CACHE=disabled dune build --root . --build-dir "$PWD/_perfbench/build" \
  --profile release ./perfbench/main.exe ./bin/loadsteal_serve.exe 1>&2
exec ./_perfbench/build/default/perfbench/main.exe "$@"
