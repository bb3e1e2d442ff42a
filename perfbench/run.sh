#!/usr/bin/env bash
# Builds the shipped `tkc` binary and the benchmark harness from source,
# then runs the harness with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload query --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); build logs go to stderr, so the last stdout line
# is the harness's result object.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

if [ ! -f Cargo.toml ] || [ ! -d crates/tkc-cli ]; then
    echo "perfbench: run from the repository root (crates/tkc-cli not found)" >&2
    exit 2
fi

cargo build --release --offline --quiet -p tkc-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
