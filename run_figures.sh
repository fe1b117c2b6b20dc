#!/bin/sh
# Regenerates every paper table/figure into results/NAME.txt with one
# tpbench process, so a simulation several figures share runs once.
# Usage: ./run_figures.sh [scale] [jobs]   (default: small, all cores)
# Jobs can also be set via TPSIM_JOBS. Results are bit-identical for
# any worker count: simulations fan out through the deterministic
# sweep runner, which reassembles reports in canonical job order.
# Set AUDIT=1 to check every simulation against the conservation laws
# in tpsim::audit (debug builds always check; this enables the same
# checks in this release run, aborting on the first violation).
# Progress goes to results/tpbench.log.
set -e
SCALE=${1:-small}
JOBS=${2:-${TPSIM_JOBS:-$(nproc 2>/dev/null || echo 1)}}
mkdir -p results
echo "== tpbench ($SCALE, jobs=$JOBS${AUDIT:+, audit}) =="
cargo run --release -q -p tpbench -- --scale="$SCALE" --jobs="$JOBS" ${AUDIT:+--audit} \
  --out=results 2>results/tpbench.log
