#!/bin/sh
# Rewrites the ledger: the stdout of every deterministic run of the
# repository, one file per run — the paper's figures and the adversity grid
# at small scale, and each example — all in release. A run that exits
# non-zero stops the script with its status. The output is byte-for-byte
# deterministic, so after this script `git diff -- ledger/` shows exactly
# the printed figures a change moved.
#
#   sh ledger/update.sh
set -eu
cd "$(dirname "$0")/.."
rm -f ledger/*.txt
run() {
    out=ledger/$1.txt
    shift
    cargo run --release --quiet "$@" >"$out"
}
run experiments-all-small -p ndlog-bench --bin experiments -- all small
run experiments-adversity-small -p ndlog-bench --bin experiments -- adversity small
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    run "example-$name" --example "$name"
done
