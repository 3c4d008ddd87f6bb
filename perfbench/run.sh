#!/usr/bin/env bash
# Builds the daemons and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build at the
# repository root); cargo's messages go to stderr, the report to stdout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet -p predictd -p predictgw --bins >&2
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml --bin benchmark >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
