#!/usr/bin/env bash
# The repository's benchmark: builds `dakc` and the harness in release
# mode, then runs the harness with the arguments given (see README.md).
#
#   perf/run.sh [--workload NAME] [--seed N] [--seconds S | --reps N]
#               [--out DIR] [--trace [0|1]] [--smoke]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Share the repository's target directory unless the caller names one, so
# nothing is built twice.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
mkdir -p "$CARGO_TARGET_DIR"
target="$(cd "$CARGO_TARGET_DIR" && pwd)"
export CARGO_TARGET_DIR="$target"
# Cargo's progress goes to stderr; standard output is the harness's alone.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p dakc-perf -p dakc-cli >&2
PERF_GIT_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export PERF_GIT_COMMIT
exec "$target/release/dakc-perf" run --dakc "$target/release/dakc" \
    --out "$here/out" "$@"
