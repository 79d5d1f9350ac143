#!/usr/bin/env bash
# Builds the benchmark and the CLI from source, then runs one workload:
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0
# Run from the root of a checkout; everything it writes stays inside it.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . --display quiet perfbench/perfbench.exe bin/impact_cli.exe 1>&2
# One CPU for the benchmark, its threads and the serve daemon it starts:
# the last one this shell may use.  The host-speed probe then samples the
# core the work runs on (perfbench/hostspeed.ml).
pin=()
if cpus=$(taskset -cp $$ 2>/dev/null); then
  pin=(taskset -c "${cpus##*[ ,-]}")
fi
exec "${pin[@]}" ./_build/default/perfbench/perfbench.exe --cli ./_build/default/bin/impact_cli.exe "$@"
