#!/bin/sh
# Rewrites the ledger: the stdout of every deterministic run of the
# repository, one file per run — the paper's figures and the adversity grid
# at small scale, and each example — all in release, and the deterministic
# counts of the benchmark's selftest. A run that exits non-zero stops the
# script with its status. The output is byte-for-byte deterministic, so
# after this script `git diff -- ledger/` shows exactly the printed figures
# a change moved.
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

# The benchmark's selftest (every workload at 14 nodes, untraced and
# traced): per run its `workload … seed … trace …` header without the CPU
# count, then `wire_mb`, `net.bytes_per_msg` and every `count` metric but
# `serve.query_rows_mean`, which reads what a racing reader saw.
selftest=$(mktemp)
trap 'rm -f "$selftest"' EXIT
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- selftest >"$selftest"
awk '$1 == "workload" { print $1, $2, $3, $4, $5, $6; next }
     $1 == "serve.query_rows_mean" { next }
     $3 == "count" || $1 == "wire_mb" || $1 == "net.bytes_per_msg" { print $1, $2 }' \
    "$selftest" >ledger/benchmark-selftest-counts.txt
