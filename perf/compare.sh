#!/usr/bin/env bash
# perf/compare.sh A B: checks result set B (a directory a run wrote with
# --out) against result set A, metric by metric (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
mkdir -p "$CARGO_TARGET_DIR"
target="$(cd "$CARGO_TARGET_DIR" && pwd)"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" -p dakc-perf >&2
exec "$target/release/dakc-perf" compare "$@"
