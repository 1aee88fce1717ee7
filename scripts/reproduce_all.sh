#!/usr/bin/env bash
# Regenerate every experiment artifact under results/ (see EXPERIMENTS.md).
#
# Usage:
#   scripts/reproduce_all.sh                      # laptop scale (defaults)
#   scripts/reproduce_all.sh --full               # paper scale: 500k trajectories, 2.7M population
#   scripts/reproduce_all.sh --threads 8 --seed 1
#
# The flags are forwarded to every binary. `calibrate`, which runs
# Figs 4 and 5 from their runspecs, accepts only --full, --seed N and
# --threads N, so those are the flags this script takes.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p epibench --bins
mkdir -p results

for bin in fig2_ground_truth fig3_single_window scaling ablation forecast sbc; do
  echo "=== $bin $* ==="
  ./target/release/$bin "$@" | tee "results/${bin}_log.txt"
  echo
done

# Figs 4 and 5: both runspecs, then Fig 5's comparison against Fig 4.
echo "=== calibrate specs/fig4.json specs/fig5.json $* ==="
./target/release/calibrate specs/fig4.json specs/fig5.json "$@" | tee results/calibrate_log.txt

# Fig 4 with [62, 90] split into four weekly windows (EXPERIMENTS.md,
# Fig 4).
echo "=== calibrate specs/fig4_weekly.json $* ==="
./target/release/calibrate specs/fig4_weekly.json "$@" | tee results/calibrate_weekly_log.txt

# Each run's cost: its `done in` footer (wall time and peak RSS).
grep -H "done in" results/*_log.txt | tee results/costs.txt

echo "all artifacts under results/"
