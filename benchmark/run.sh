#!/usr/bin/env bash
# The repo's one benchmark: builds benchmark/ and runs it.
#
#   benchmark/run.sh [--seed=N] [--runs=N] [--trace] [--quick] [--out=FILE]
#       every workload in its own child process, then a summary;
#       --trace adds the per-layer pass, --quick is the smoke mode
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result JSON
#   benchmark/run.sh compare A.json B.json
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# An absolute CARGO_TARGET_DIR is used as given; a relative one is
# relative to the repo root, which is now the working directory.
target="${CARGO_TARGET_DIR:-benchmark/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

export BENCH_GIT_COMMIT="${BENCH_GIT_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
exec "$target/release/benchmark" "$@"
