#!/usr/bin/env bash
# Build the benchmark and the exploration tools it drives from source,
# then run it with the given arguments.  Run from the repository root:
#
#   bash benchmark/run.sh --workload serve_steady --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh --seed 42            # every workload, README.md
#
# Build messages go to standard error, so the last line of standard
# output is the benchmark's result.
set -euo pipefail
dune build --root . --display quiet \
  benchmark/main.exe bin/crash_explore.exe bin/sched_explore.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
