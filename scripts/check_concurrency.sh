#!/usr/bin/env bash
# One-shot concurrency gate for the persistent worker pool and the other
# unsafe-bearing modules (see DESIGN.md "Unsafe inventory and concurrency
# audit").
#
# Layers, in order:
#   1. stable:  the pool's unit tests (crates/epismc/src/runner.rs), the
#               exhaustive interleaving model (tests/pool_model.rs), the
#               seeded stress suite (tests/pool_stress.rs) and the
#               lifecycle-edge suite (tests/pool_lifecycle.rs) —
#               `cargo test --workspace` runs them too; this layer runs
#               them alone so the gate stands on its own.
#   2. Miri:    undefined-behaviour check over the unsafe-bearing unit
#               tests (pool + slab, ckpool interning, RNG stream keys).
#               Needs: rustup +nightly component add miri
#   3. TSan:    data-race check over the three pool suites. Needs:
#               rustup +nightly component add rust-src (for -Zbuild-std)
#
# Layers 2 and 3 skip gracefully when the nightly components are absent
# (e.g. offline containers); CI installs them (.github/workflows/ci.yml,
# jobs `concurrency-miri` / `concurrency-tsan`).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> [stable] pool unit tests"
cargo test -p epismc-core --lib -q runner

echo "==> [stable] interleaving model + stress suite + lifecycle edges"
cargo test --test pool_model --test pool_stress --test pool_lifecycle -q

have_nightly() {
  rustup toolchain list 2>/dev/null | grep -q '^nightly'
}

nightly_component() {
  rustup component list --toolchain nightly 2>/dev/null \
    | grep -q "^$1.*(installed)"
}

if have_nightly && nightly_component miri; then
  # --lib scopes Miri to the unit tests: the integration suites spin
  # real contention loops that are pointlessly slow under interpretation.
  # -Zmiri-disable-isolation: the pool reads available_parallelism.
  echo "==> [miri] pool + slab unit tests"
  MIRIFLAGS="-Zmiri-disable-isolation" RAYON_NUM_THREADS=2 \
    cargo +nightly miri test -p epismc-core --lib -q runner
  echo "==> [miri] checkpoint interning (ckpool)"
  MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo +nightly miri test -p epismc-core --lib -q ckpool
  echo "==> [miri] counter-based RNG stream keys"
  MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo +nightly miri test -p epistats --lib -q rng
else
  echo "==> [miri] skipped (install: rustup toolchain install nightly && rustup +nightly component add miri)"
fi

if have_nightly && nightly_component rust-src; then
  # Scoped to the three pool suites: sanitizing the whole test suite
  # would add slow calibration runs for no additional coverage.
  echo "==> [tsan] pool suites under ThreadSanitizer"
  RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
    -p epismc --test pool_model --test pool_stress --test pool_lifecycle -q
else
  echo "==> [tsan] skipped (install: rustup toolchain install nightly && rustup +nightly component add rust-src)"
fi

echo "Concurrency checks passed."
