#!/usr/bin/env bash
# Build the benchmark and the `patty` binary from this checkout, then run
# one measurement:
#
#   bash perfbench/run.sh --workload <analyze|validate|execute|serve_mixed> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last line on stdout is the JSON result.
# Binaries land in $CARGO_TARGET_DIR (default: perfbench/target).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml -p patty-perfbench -p patty-tool --bins >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" --patty "$CARGO_TARGET_DIR/release/patty"
