#!/bin/sh
# Everything this package has to pass before a change to it lands.
# Run from anywhere; builds into benchmark/target (or CARGO_TARGET_DIR).
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- selftest
