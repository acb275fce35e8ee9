#!/usr/bin/env bash
# Builds the xrbench binary and the benchmark from source, then runs
# one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# result object is the last line of standard output.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet \
    --manifest-path Cargo.toml -p xrbench-cli --bin xrbench >&2
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
# Not exec'd: the benchmark reads its reaped children's peak RSS, which
# must not include the compilers above.
"$CARGO_TARGET_DIR/release/perfbench" \
    --xrbench "$CARGO_TARGET_DIR/release/xrbench" \
    --work-dir "$CARGO_TARGET_DIR/perfbench" "$@"
