#!/usr/bin/env bash
# Builds the program under test (the release `asdex` binary, which the
# benchmark spawns as worker processes and as the daemon) and the
# benchmark itself into one target directory, then runs the benchmark
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload trm_table1 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. CARGO_TARGET_DIR picks the target
# directory (default: target).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin asdex
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
