#!/bin/sh
# Tier-1 verification plus an audited quick sweep.
#
# 1. Release build + the full test suite — the root package's tests
#    and every workspace crate's own unit, doc and integration tests,
#    all default members (the audit's conservation laws are also
#    debug-asserted inside every test-mode simulation) — then rustfmt
#    in check mode, clippy and rustdoc, warnings denied (and, for the
#    workspace, any `unsafe` block without a `// SAFETY:` comment).
# 2. Release-mode sweeps at test scale with --audit (fig09's
#    single-core pool, fig10's multi-core mixes, and fig12-15, which set
#    every prefetcher knob), so the release build's counters are checked
#    against the same laws the debug assertions enforce; an unknown
#    temporal prefetcher name is refused by tpcli.
# 3. The README's trace export -> inspect pair (the serialized format,
#    and the loaded trace at <= 5.1 B/access), server and fleet smokes
#    from the outside, then the benchmark's own tests and its quick
#    mode, then the line counts.
#
# Usage: ./scripts/check.sh   (from the repo root)
set -e
cd "$(dirname "$0")/.."

echo "== tier 1: build + tests (every workspace crate: see default-members) =="
cargo build --release
cargo test -q

echo "== lint gate: rustfmt, clippy and rustdoc with warnings denied =="
# Both workspaces stay rustfmt-clean; --check never rewrites a file.
cargo fmt --all --check
cargo fmt --check --manifest-path benchmark/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks
# The benchmark is its own workspace, which the line above never lints.
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
# Broken intra-doc links and other rustdoc warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== audited quick sweep (release, test scale) =="
cargo run --release -q -p tpbench -- --scale=test --audit fig09 >/dev/null
# A multi-core artefact too: fig10's 2-, 4- and 8-core mixes (~70 s on
# a 2-vCPU host).
cargo run --release -q -p tpbench -- --scale=test --audit fig10 >/dev/null
# The artefacts that set every Streamline and Triangel knob: stream
# length, buffer, ablations, fixed sizes, skewed and hybrid indexing,
# fixed ways and the dedicated store (~21 s at --jobs=2 on 2 vCPUs).
cargo run --release -q -p tpbench -- --scale=test --audit fig12 fig13 fig14 fig15 >/dev/null
for w in spec06.mcf spec17.xalancbmk gap.bfs; do
  cargo run --release -q -p tpharness --bin tpcli -- \
    compare "$w" --scale=test --audit >/dev/null
done
# A temporal prefetcher name outside TemporalKind::NAMED is a usage
# error (exit 2), not a run.
STATUS=0
./target/release/tpcli run gap.pr --scale=test --temporal=ideal >/dev/null 2>&1 || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "tpcli --temporal=ideal: expected exit 2, got $STATUS"; exit 1; }

echo "== trace format and layout from the shipped binaries (README's export -> inspect) =="
TPT="${TMPDIR:-/tmp}/tpcli-check-$$.tpt"
cargo run --release -q -p tpharness --bin tpcli -- export gap.pr "$TPT" --scale=test >/dev/null
INSPECT=$(cargo run --release -q -p tpharness --bin tpcli -- inspect "$TPT")
rm -f "$TPT"
BPA=$(echo "$INSPECT" | sed -n 's/^resident: .*(\([0-9.]*\) B\/access)$/\1/p')
awk -v b="$BPA" 'BEGIN { exit !(b != "" && b <= 5.1) }' || {
  echo "inspect: expected <= 5.1 B/access resident, got: $INSPECT"; exit 1;
}

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
HIT=$($TPC submit "$REQ")
echo "$HIT" | grep -q '"cached":true'
# The client prints the served report byte for byte: the store entry's
# body (the .rsp file from its second line on) is in the hit line.
BODY=$(tail -n +2 "$STORE"/*.rsp)
[ -n "$BODY" ] && echo "$HIT" | grep -qF -- "$BODY" || {
  echo "the hit line does not carry the stored report: $HIT"; exit 1;
}
$TPC stats | grep -q '"simulations":0'
$TPC shutdown | grep -q '"status":"ok"'
wait "$SERVER_PID"
# A damaged entry under a stopped server: the next start must treat it
# as a load error and a miss — simulate again, which rewrites the entry
# — never serve it.
restart_on_damage() {
  start_server
  $TPC submit "$REQ" | grep -q '"cached":false' || { echo "a store entry with $1 was served"; exit 1; }
  STATS=$($TPC stats)
  echo "$STATS" | grep -q '"load_errors":1' || { echo "$1: expected one load error: $STATS"; exit 1; }
  echo "$STATS" | grep -q '"simulations":1' || { echo "$1: expected one simulation: $STATS"; exit 1; }
  $TPC shutdown | grep -q '"status":"ok"'
  wait "$SERVER_PID"
}
# First: overwrite the first digit of the cycle count in the one body.
RSP=$(ls "$STORE"/*.rsp)
CYCLES=$(grep -bo '"cycles":' "$RSP" | head -n 1 | cut -d: -f1)
printf 'x' | dd of="$RSP" bs=1 seek=$((CYCLES + 9)) conv=notrunc 2>/dev/null
restart_on_damage "an overwritten digit"
# Then: delete the first value of the l1d counter array, which leaves
# canonical JSON that does not decode as a report.
RSP=$(ls "$STORE"/*.rsp)
WHOLE=$(cksum < "$RSP")
sed -i 's/"l1d":\[[0-9]*,/"l1d":[/' "$RSP"
[ "$(cksum < "$RSP")" != "$WHOLE" ] || { echo "no l1d counter array in $RSP"; exit 1; }
restart_on_damage "a counter deleted"
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
# Every job went to a backend, once: none fell back to the local pool.
echo "$CSTATS" | grep -q '"forwarded":3,' || { echo "fleet smoke: not 3 forwards: $CSTATS"; exit 1; }
echo "$CSTATS" | grep -q '"local_jobs":0,' || { echo "fleet smoke ran jobs locally: $CSTATS"; exit 1; }
# Each forwarded ticket was collected by its WAIT, none left for the
# TTL reap.
for s in "$B0" "$B1"; do
  BSTATS=$(./target/release/tpclient "unix:$s" stats)
  echo "$BSTATS" | grep -q '"tickets":0,' || { echo "fleet smoke: $s holds tickets: $BSTATS"; exit 1; }
done
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
