#!/usr/bin/env bash
# Builds the corpus_e2e benchmark and the kit's dist_worker from source,
# then runs the benchmark with the given arguments. Run from the root of
# a checkout:
#
#   bash corpus_e2e/run.sh --workload ladders --seed 1 --seconds 55 --trace 0
#
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/../Cargo.toml" --bin dist_worker >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/corpus_e2e" --worker-bin "$target/release/dist_worker" "$@"
