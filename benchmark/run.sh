#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# binary (see README.md):
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--repeats K] [--smoke] [--out FILE]
#   benchmark/run.sh --compare A.json B.json
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
# The repo's own target directory unless the caller names another.
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$here/../target}
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/autonet-benchmark" "$@"
