#!/usr/bin/env bash
# Repository-wide quality gate: formatting, lints, tests.
#
# Run from the repository root. This is the same sequence CI runs
# (.github/workflows/ci.yml), so a clean local pass means a green build.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p epilint"
cargo run -p epilint --quiet

# Rustdoc with warnings denied, so a broken, ambiguous or redundant
# intra-doc link fails the gate. The repository's own packages are named
# explicitly: the vendored path dependencies are implicit workspace
# members, and their docs are not this gate's concern.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps -p epismc -p epistats -p episim -p epismc-core -p epidata -p epibench -p epilint"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p epismc -p epistats -p episim -p epismc-core -p epidata -p epibench -p epilint

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The vendored pool is a path dependency, not a workspace member, so its
# unit tests and the concurrency suites (interleaving model, seeded
# stress, lifecycle edges) need explicit invocations. Miri/TSan variants
# live in scripts/check_concurrency.sh.
echo "==> cargo test -p rayon -q && cargo test --test pool_lifecycle -q"
cargo test -p rayon -q
cargo test --test pool_lifecycle -q

# The durability harnesses run as part of the workspace suite above;
# this explicit pass re-runs them under a constrained thread pool so the
# kill/resume bit-identity matrices (background writer and inline
# stream alike), the cross-commit move-pass pin, the streaming
# constant-cost pin and the early-rejection exactness suite also cover
# the multi-worker path locally (CI's fault-injection job sweeps 1/2/4
# threads and there is a dedicated streaming job at
# RAYON_NUM_THREADS=2).
echo "==> RAYON_NUM_THREADS=2 cargo test --test durability_resume --test fault_injection --test persist_format --test async_durability --test resampling_menu --test streaming_equivalence --test rejuvenation_kernels --test move_pass_golden --test stream_constant_cost --test early_rejection -q"
RAYON_NUM_THREADS=2 cargo test --test durability_resume --test fault_injection --test persist_format --test async_durability --test resampling_menu --test streaming_equivalence --test rejuvenation_kernels --test move_pass_golden --test stream_constant_cost --test early_rejection -q

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run --quiet

# The benchmark (perfbench/) is a workspace of its own that implements
# the public simulator and store traits and reads window results, so an
# API change can break it without touching the workspace above.
echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
echo "==> cargo test --offline --manifest-path perfbench/Cargo.toml"
cargo test --offline --manifest-path perfbench/Cargo.toml

# Strong-scaling gate: only meaningful against a summary produced on
# this machine. If one is present, assert the efficiency floor. On
# hosts with < 4 cores the gate cannot measure and exits 77, reported
# here as SKIPPED; any other nonzero status fails. Regenerate + gate in
# one step with scripts/check_scaling.sh.
if [ -f BENCH_strong_scaling.json ]; then
  echo "==> check_scaling BENCH_strong_scaling.json"
  status=0
  cargo run -q -p epibench --bin check_scaling -- BENCH_strong_scaling.json || status=$?
  case "$status" in
    0) ;;
    77) echo "==> strong-scaling gate SKIPPED (this host cannot measure 4-thread scaling)" ;;
    *) exit "$status" ;;
  esac
else
  echo "==> strong-scaling gate skipped (no BENCH_strong_scaling.json; run scripts/check_scaling.sh)"
fi

echo "All checks passed."
