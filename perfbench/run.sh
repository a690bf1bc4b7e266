#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to standard error; the last line of standard output
# is the JSON result. Outside a StencilFlow checkout it fails without
# printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: dune-project and lib/ not found; run from a StencilFlow checkout" >&2
  exit 1
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
