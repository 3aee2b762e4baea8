#!/usr/bin/env bash
# Builds the hytlb benchmark from source and runs it. Every argument is
# passed on to hytlb-perfbench; see perfbench/README.md. The build output
# goes to $CARGO_TARGET_DIR (default: perfbench/target).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml \
    --bin hytlb-perfbench >&2
exec "$CARGO_TARGET_DIR/release/hytlb-perfbench" "$@"
