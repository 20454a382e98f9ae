#!/usr/bin/env bash
# Build the benchmark from source and run it from the root of a
# checkout of this repository:
#
#   bash perfbench/run.sh --workload archive-pipeline --seed 1 --seconds 15 --trace 0
#
# Arguments are passed to perfbench/main.exe (see main.ml).  Build output
# goes to stderr; the benchmark's report goes to stdout, ending with the
# one-line JSON result.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no dune-project and lib/ here; run from a checkout of the repository" >&2
  exit 2
fi

# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
