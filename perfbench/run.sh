#!/usr/bin/env bash
# Build the served `fairsel` binary and the benchmark from source, then run
# one measurement. Run from the root of a checkout; the arguments go to
# fairsel-perfbench unchanged:
#
#   bash perfbench/run.sh --workload warm-serve --seed 1 --seconds 10 --trace 0
#
# Builds land in $CARGO_TARGET_DIR (default .bench_build in the checkout).
set -euo pipefail

root="$(pwd)"
if [ ! -f Cargo.toml ] || [ ! -d crates ] || [ ! -f perfbench/Cargo.toml ]; then
    echo "perfbench: run from the root of a fairsel checkout" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --offline --release --quiet --manifest-path Cargo.toml --bin fairsel >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2

commit=none
if [ -e .git ]; then
    commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo none)"
fi

exec "$target/release/fairsel-perfbench" "$@" \
    --fairsel "$target/release/fairsel" --commit "$commit" --spans-dir "$target"
