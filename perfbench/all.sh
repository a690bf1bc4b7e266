#!/usr/bin/env bash
# Run every workload, untraced then traced, with its output checks:
#
#   bash perfbench/all.sh [SEED] [SECONDS]
#
# Each run prints its report and ends with its JSON result line.
set -euo pipefail
seed=${1:-1}
seconds=${2:-10}
for workload in oneshot-sim serve-warm serve-compile validate-campaign; do
  for trace in 0 1; do
    bash "$(dirname "$0")/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
  done
done
