#!/usr/bin/env bash
# Regenerate every experiment artifact under results/ (see EXPERIMENTS.md).
#
# Usage:
#   scripts/reproduce_all.sh            # laptop scale (defaults)
#   scripts/reproduce_all.sh --full     # paper scale: 500k trajectories, 2.7M population
#
# Extra flags are forwarded to every binary (e.g. --threads 8 --seed 1).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p epibench --bins
mkdir -p results

for bin in fig2_ground_truth fig3_single_window fig4_sequential_cases \
           fig5_cases_deaths scaling ablation forecast sbc; do
  echo "=== $bin $* ==="
  ./target/release/$bin "$@" | tee "results/${bin}_log.txt"
  echo
done

# The config-driven CLI with its built-in default campaign.
./target/release/calibrate | tee results/calibrate_log.txt

# Each run's cost: its `done in` footer (wall time and peak RSS).
grep -H "done in" results/*_log.txt | tee results/costs.txt

echo "all artifacts under results/"
