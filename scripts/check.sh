#!/bin/sh
# Tier-1 verification plus an audited quick sweep.
#
# 1. Release build + the full test suite — the root package's tests
#    and every workspace crate's own unit, doc and integration tests,
#    all default members (the audit's conservation laws are also
#    debug-asserted inside every test-mode simulation) — then clippy
#    and rustdoc, warnings denied.
# 2. A release-mode sweep over the memory-intensive pool at test scale
#    with --audit, so the release build's counters are checked against
#    the same laws the debug assertions enforce.
# 3. Server and fleet smokes from the outside, then the benchmark's own
#    tests and its quick mode, then the line counts.
#
# Usage: ./scripts/check.sh   (from the repo root)
set -e
cd "$(dirname "$0")/.."

echo "== tier 1: build + tests (every workspace crate: see default-members) =="
cargo build --release
cargo test -q

echo "== lint gate: clippy and rustdoc with warnings denied =="
cargo clippy --workspace --all-targets -- -D warnings
# The benchmark is its own workspace, which the line above never lints.
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
# Broken intra-doc links and other rustdoc warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== audited quick sweep (release, test scale) =="
cargo run --release -q -p tpbench --bin fig09_single_core -- \
  --scale=test --audit >/dev/null
for w in spec06.mcf spec17.xalancbmk gap.bfs; do
  cargo run --release -q -p tpharness --bin tpcli -- \
    compare "$w" --scale=test --audit >/dev/null
done

echo "== server smoke test (unix socket, pipelining, store-backed restart, damaged entry) =="
SOCK="${TMPDIR:-/tmp}/tpserve-check-$$.sock"
STORE="${TMPDIR:-/tmp}/tpserve-check-store-$$"
rm -rf "$STORE"
# Starts tpserve on $SOCK over $STORE and waits for its socket.
start_server() {
  ./target/release/tpserve --socket="$SOCK" --jobs=2 --audit --store="$STORE" >/dev/null 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    [ -S "$SOCK" ] && break
    sleep 0.1
  done
  [ -S "$SOCK" ] || { echo "tpserve did not create $SOCK"; exit 1; }
}
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$STORE"' EXIT
start_server
TPC="./target/release/tpclient unix:$SOCK"
REQ='{"workload":"spec06.mcf","scale":"test","temporal":"streamline"}'
$TPC ping | grep -q '"pong":true'
$TPC submit "$REQ" | grep -q '"status":"done"'
# One pipelined connection: three identical SUBMITs written before any
# response is read; three synchronous cache hits come back in order.
PIPE=$($TPC pipeline "$REQ" "$REQ" "$REQ")
[ "$(echo "$PIPE" | wc -l)" -eq 3 ] || { echo "pipeline: expected 3 responses"; exit 1; }
[ "$(echo "$PIPE" | grep -c '"cached":true')" -eq 3 ] || {
  echo "pipeline: expected 3 cache hits: $PIPE"; exit 1;
}
# A hit is the cached bytes in a fixed envelope: the three lines are one.
[ "$(echo "$PIPE" | sort -u | wc -l)" -eq 1 ] || {
  echo "pipeline: the three hit lines differ: $PIPE"; exit 1;
}
STATS=$($TPC stats)
echo "$STATS" | grep -q '"simulations":1'
echo "$STATS" | grep -q '"cache_hits":3'
# Malformed requests are structured errors, not crashes.
$TPC submit '{"workload":"no.such"}' | grep -q '"status":"error"'
$TPC shutdown | grep -q '"status":"ok"'
wait "$SERVER_PID"
[ ! -e "$SOCK" ] || { echo "tpserve left its socket behind"; exit 1; }
# Warm restart over the same store directory: the request served above
# must come back as a cache hit with zero simulations.
start_server
$TPC submit "$REQ" | grep -q '"cached":true'
$TPC stats | grep -q '"simulations":0'
$TPC shutdown | grep -q '"status":"ok"'
wait "$SERVER_PID"
# A damaged entry under a stopped server: overwrite the first digit of a
# counter in the one stored body. The next start must treat it as a load
# error and a miss — simulate again — never serve it.
RSP=$(ls "$STORE"/*.rsp)
CYCLES=$(grep -bo '"cycles":' "$RSP" | head -n 1 | cut -d: -f1)
printf 'x' | dd of="$RSP" bs=1 seek=$((CYCLES + 9)) conv=notrunc 2>/dev/null
start_server
$TPC submit "$REQ" | grep -q '"cached":false' || { echo "a damaged store entry was served"; exit 1; }
STATS=$($TPC stats)
echo "$STATS" | grep -q '"load_errors":1'
echo "$STATS" | grep -q '"simulations":1'
$TPC shutdown | grep -q '"status":"ok"'
wait "$SERVER_PID"
trap - EXIT
rm -rf "$STORE"
[ ! -e "$SOCK" ] || { echo "tpserve left its socket behind"; exit 1; }

echo "== fleet smoke test (coordinator over 2 backends, local-check gate) =="
B0="${TMPDIR:-/tmp}/tpserve-check-b0-$$.sock"
B1="${TMPDIR:-/tmp}/tpserve-check-b1-$$.sock"
CSOCK="${TMPDIR:-/tmp}/tpserve-check-coord-$$.sock"
./target/release/tpserve --socket="$B0" --jobs=2 >/dev/null 2>&1 &
B0_PID=$!
./target/release/tpserve --socket="$B1" --jobs=2 >/dev/null 2>&1 &
B1_PID=$!
trap 'kill "$B0_PID" "$B1_PID" "$COORD_PID" 2>/dev/null || true' EXIT
for s in "$B0" "$B1"; do
  for _ in $(seq 1 50); do
    [ -S "$s" ] && break
    sleep 0.1
  done
  [ -S "$s" ] || { echo "tpserve did not create $s"; exit 1; }
done
./target/release/tpserve --coordinator --socket="$CSOCK" \
  --backend="unix:$B0" --backend="unix:$B1" >/dev/null 2>&1 &
COORD_PID=$!
for _ in $(seq 1 50); do
  [ -S "$CSOCK" ] && break
  sleep 0.1
done
[ -S "$CSOCK" ] || { echo "coordinator did not create $CSOCK"; exit 1; }
TPCOORD="./target/release/tpclient unix:$CSOCK"
$TPCOORD ping | grep -q '"pong":true'
# Three jobs (one seeded, to force the seed-bypass path) sharded over
# both backends; --local-check re-runs each locally and fails on any
# byte divergence between fleet and local reports.
$TPCOORD sweep \
  '{"workload":"spec06.mcf","scale":"test","temporal":"streamline"}' \
  '{"workload":"gap.bfs","scale":"test","temporal":"streamline"}' \
  '{"workload":"spec06.mcf","scale":"test","temporal":"streamline","seed":4242}' \
  --local-check | grep -q '"identical":true'
# A WAIT the backends mishandled would reroute the job, not fail it:
# the bytes above would still match, so the counter is the gate.
CSTATS=$($TPCOORD stats)
echo "$CSTATS" | grep -q '"role":"coordinator"'
echo "$CSTATS" | grep -q '"rerouted":0' || { echo "fleet smoke rerouted jobs: $CSTATS"; exit 1; }
$TPCOORD shutdown | grep -q '"status":"ok"'
wait "$COORD_PID"
./target/release/tpclient "unix:$B0" shutdown >/dev/null
./target/release/tpclient "unix:$B1" shutdown >/dev/null
wait "$B0_PID" "$B1_PID"
trap - EXIT
[ ! -e "$CSOCK" ] || { echo "coordinator left its socket behind"; exit 1; }

echo "== benchmark: its own tests, then every workload once (quick mode) =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# Exits non-zero on any failed operation or correctness check.
benchmark/run.sh --quick >/dev/null

echo "== line counts (crates/ is a tracked quantity; compare with the parent's) =="
./scripts/loc.sh

echo "check.sh: all gates passed"
