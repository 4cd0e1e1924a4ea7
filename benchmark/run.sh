#!/usr/bin/env bash
# Builds `repro` and the benchmark program from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload live-fp --seed 1 --seconds 12 --trace 0
#   bash benchmark/run.sh run            # every workload, into .bench_out/run
#
# Both builds share CARGO_TARGET_DIR (default: target), so the benchmark
# finds `repro` next to itself. Build output goes to stderr; the last line
# on stdout is the benchmark's result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --manifest-path Cargo.toml -p mcl-bench --bin repro >&2
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
