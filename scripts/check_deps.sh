#!/usr/bin/env bash
# Unused-dependency gate: every dependency a repository package (the
# facade and the crates under crates/) declares must be named in its
# sources, as `<crate>::` or `use <crate>`. A `[dependencies]` entry must
# appear under src/; a `[dev-dependencies]` entry under src/ (its test
# modules), tests/ or examples/. Vendored crates are not checked.
#
# Run from anywhere; exits 1 and names each unused entry.
set -euo pipefail
cd "$(dirname "$0")/.."

unused=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    for section in dependencies dev-dependencies; do
        roots=("$dir/src")
        if [ "$section" = dev-dependencies ]; then
            roots+=("$dir/tests" "$dir/examples")
        fi
        deps=$(sed -n "/^\[$section\]/,/^\[/s/^\([A-Za-z0-9_-]\{1,\}\) *=.*/\1/p" "$manifest")
        for dep in $deps; do
            crate=${dep//-/_}
            if ! grep -rqE --include='*.rs' "(^|[^A-Za-z0-9_])$crate::|use $crate\b" \
                "${roots[@]}" 2>/dev/null; then
                echo "$manifest: [$section] '$dep' is never named in ${roots[*]}"
                unused=1
            fi
        done
    done
done
exit "$unused"
