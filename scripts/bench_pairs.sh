#!/bin/sh
# Parent-against-change comparison in the form the ROADMAP asks of every
# performance claim: the benchmark's five workloads, run as alternating
# pairs, judged by `benchmark compare`.
#
# Usage: scripts/bench_pairs.sh <parent-ref> [pairs=10] [seed0=401]
#
# The parent is `git archive`d into a directory under ${TMPDIR:-/tmp}
# (removed on exit); the change is the working tree. Each side's
# benchmark/ is built once into its own CARGO_TARGET_DIR there and runs
# from its own checkout, so each writes its own benchmark/out/. Pair i
# uses seed seed0+i for every workload; even pairs run the parent first,
# odd pairs the change. The two result sets are left in
# benchmark/out/pairs/{parent,change}.json, and the script's exit status
# is `benchmark compare parent.json change.json`'s: 1 if any end-to-end
# metric is worse beyond its bound or any exact metric differs.
#
# 10 pairs take about 45 minutes. POSIX sh, git, tar, cargo, sed, awk.
set -eu
cd "$(dirname "$0")/.."

ref=${1:?usage: scripts/bench_pairs.sh <parent-ref> [pairs=10] [seed0=401]}
pairs=${2:-10}
seed0=${3:-401}
workloads=$(sed -n 's/^ *{"name":"\([a-z_]*\)","why".*/\1/p' BENCHMARK.json)

work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$ref" | tar -x -C "$work/parent"
parent_dir="$work/parent"
change_dir=$(pwd)
parent_commit=$(git rev-parse "$ref")
change_commit=$(git rev-parse HEAD)$(git diff --quiet HEAD || echo -dirty)

for side in parent change; do
  eval "dir=\$${side}_dir"
  echo "building $side ($dir)"
  (cd "$dir" && CARGO_TARGET_DIR="$work/target-$side" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

host() {
  echo "host: $(nproc) cpu(s), $(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1)," \
    "loadavg $(cut -d' ' -f1-3 /proc/loadavg)"
}

# One run of one workload on one side; its result object is appended to
# the side's list. A failed run is reported and fails the script at the
# end, after the other runs have had their turn.
failed=0
run() { # side workload seed
  eval "dir=\$${1}_dir; commit=\$${1}_commit"
  if (cd "$dir" && BENCH_GIT_COMMIT="$commit" "$work/target-$1/release/benchmark" \
    --workload "$2" --seed "$3" --trace 0 >"$work/log" 2>&1); then
    cat "$dir/benchmark/out/$2.t0.json" >>"$work/$1.runs"
  else
    echo "FAILED RUN: $1 $2 seed $3"
    tail -n 5 "$work/log"
    failed=1
  fi
}

host
i=0
while [ "$i" -lt "$pairs" ]; do
  seed=$((seed0 + i))
  if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
  echo "pair $((i + 1))/$pairs: seed $seed, $order"
  for w in $workloads; do
    for side in $order; do run "$side" "$w" "$seed"; done
  done
  i=$((i + 1))
done
host

out=benchmark/out/pairs
mkdir -p "$out"
for side in parent change; do
  { printf '{"runs":['; paste -sd, "$work/$side.runs"; printf ']}\n'; } | tr -d '\n' >"$out/$side.json"
  echo >>"$out/$side.json"
done

# Pairs won, per workload and end-to-end metric (ties count for neither).
value() { # file workload metric -> one value per run, in run order
  grep "\"workload\":\"$2\"" "$1" |
    sed -n "s/.*\"$3\":{\"value\":\([-0-9.e+]*\).*/\1/p"
}
echo
echo "pairs won by the change (of $pairs; ties count for neither):"
sed -n 's/^ *{"name":"\([a-z_]*\)",.*"better":"\([a-z]*\)","bound".*/\1 \2/p' BENCHMARK.json |
  while read -r metric better; do
    for w in $workloads; do
      value "$work/parent.runs" "$w" "$metric" >"$work/a"
      value "$work/change.runs" "$w" "$metric" >"$work/b"
      paste "$work/a" "$work/b" | awk -v w="$w" -v m="$metric" -v hi="$better" '
        { if ($1 == $2) t++; else if ((hi == "higher") == ($2 > $1)) won++; else lost++ }
        END { printf "  %-18s %-24s won %2d  lost %2d  tied %2d\n", w, m, won, lost, t }'
    done
  done
echo

status=0
"$work/target-change/release/benchmark" compare "$out/parent.json" "$out/change.json" || status=$?
echo "result sets: $out/parent.json $out/change.json"
[ "$failed" -eq 0 ] || status=1
exit "$status"
