#!/usr/bin/env bash
# Strong-scaling gate: regenerate the sweep on this machine and assert
# the parallel-efficiency floor.
#
# Runs the 500k-cell-shape window bench at 1/2/4 threads (8 when the
# host has the cores), writes BENCH_strong_scaling.json at the repo
# root, and fails if efficiency at 4 threads drops below the floor
# (default 70%; override with SCALING_FLOOR=0.xx). On hosts with fewer
# than 4 cores a 4-thread point measures oversubscription, not scaling:
# the checker exits 77 ("cannot measure here"), which this script
# reports as SKIPPED; any other nonzero status fails.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo bench -p epibench --bench bench_strong_scaling"
cargo bench -p epibench --bench bench_strong_scaling

echo "==> check_scaling BENCH_strong_scaling.json"
status=0
cargo run -q -p epibench --bin check_scaling -- BENCH_strong_scaling.json || status=$?
case "$status" in
  0) ;;
  77) echo "==> strong-scaling gate SKIPPED (this host cannot measure 4-thread scaling)" ;;
  *) exit "$status" ;;
esac
