#!/usr/bin/env bash
# Repository-wide quality gate: formatting, lints, tests.
#
# Run from the repository root. This is the same sequence CI runs
# (.github/workflows/ci.yml), so a clean local pass means a green build.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

# Every dependency a repository package declares must be named in its
# sources (see the script for where each section is looked up).
echo "==> scripts/check_deps.sh"
./scripts/check_deps.sh

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

# This step also runs the worker pool's unit tests (in the epismc-core
# runner module) and its three suites (tests/pool_model.rs,
# tests/pool_stress.rs, tests/pool_lifecycle.rs). Miri/TSan variants
# live in scripts/check_concurrency.sh.
echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The durability harnesses run as part of the workspace suite above;
# this explicit pass re-runs them under a two-worker default pool so the
# kill/resume bit-identity matrices (background writer and inline
# stream alike), the cross-commit move-pass pin, the streaming
# constant-cost pin, the early-rejection exactness suite and the
# distinct-posterior suite also cover the multi-worker path locally
# (CI's fault-injection job sweeps 1/2/4 threads and there is a
# dedicated streaming job at RAYON_NUM_THREADS=2), and the pool
# lifecycle suite checks that a default-sized runner keeps its two
# workers.
echo "==> RAYON_NUM_THREADS=2 cargo test --test durability_resume --test fault_injection --test persist_format --test async_durability --test resampling_menu --test streaming_equivalence --test rejuvenation_kernels --test move_pass_golden --test stream_constant_cost --test early_rejection --test distinct_posterior --test pool_lifecycle -q"
RAYON_NUM_THREADS=2 cargo test --test durability_resume --test fault_injection --test persist_format --test async_durability --test resampling_menu --test streaming_equivalence --test rejuvenation_kernels --test move_pass_golden --test stream_constant_cost --test early_rejection --test distinct_posterior --test pool_lifecycle -q

# The benchmark (perfbench/) is a workspace of its own that implements
# the public simulator and store traits and reads window results, so an
# API change can break it without touching the workspace above.
echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
echo "==> cargo test --offline --manifest-path perfbench/Cargo.toml"
cargo test --offline --manifest-path perfbench/Cargo.toml

# Figs 4 and 5 from their committed runspecs, end to end (about 5 s in
# release on 2 vCPUs), then Fig 4 with its last window split into weeks
# (about 2 s): each fails on a nonzero exit.
echo "==> cargo run --release -p epibench --bin calibrate -- specs/fig4.json specs/fig5.json"
cargo run --release -p epibench --bin calibrate -- specs/fig4.json specs/fig5.json
echo "==> cargo run --release -p epibench --bin calibrate -- specs/fig4_weekly.json"
cargo run --release -p epibench --bin calibrate -- specs/fig4_weekly.json

# Strong-scaling gate: times one 500k-cell window at 1, 2 and 4
# threads and asserts the efficiency floor; on hosts with < 4 cores it
# exits 77 before timing anything and the script reports SKIPPED.
./scripts/check_scaling.sh

echo "All checks passed."
