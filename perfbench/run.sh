#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it; every
# argument goes to perf.exe (see perfbench/README.md).  Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-figs --seed 3 --seconds 15 --trace 0
#
# The build stays inside the checkout (_build/); dune's shared cache in the
# home directory is switched off.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/perf.exe 1>&2
exec ./_build/default/perfbench/perf.exe "$@"
