#!/usr/bin/env bash
# The end-to-end benchmark. Builds bench/e2e/main.exe and agree.exe from
# source, then:
#
#   bench/e2e/run.sh [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#       runs every workload, one after another, each in a fresh process,
#       and writes {"seed", "trace", "workloads": {W: result}} to FILE
#       (default bench/e2e/out/run-seed<N>[-trace].json), the input of
#       agree.exe;
#   bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       runs one workload; the last line printed is its JSON result.
#
# Every run also writes its full result (quartiles, derived ratios, and
# for a traced run the span log) to bench/e2e/out/. The default seed is 1.
# Exits 1 if any output failed its oracle.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)

usage() {
  echo "usage: $0 [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]" >&2
  exit 2
}

workload="" seed=1 seconds=15 trace=0 out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || usage; workload=$2; shift 2 ;;
    --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
    --trace)
      case "${2-}" in 0|1) trace=$2; shift 2 ;; *) usage ;; esac ;;
    --out) [ $# -ge 2 ] || usage; out=$2; shift 2 ;;
    *) usage ;;
  esac
done

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
(cd "$root" && dune build --root . ./bench/e2e/main.exe ./bench/e2e/agree.exe) >&2
exe="$root/_build/default/bench/e2e/main.exe"
mkdir -p "$here/out"

suffix="seed$seed"
[ "$trace" = 1 ] && suffix="$suffix-trace"

run_one() {
  "$exe" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --out "$here/out/$1-$suffix.json"
}

if [ -n "$workload" ]; then
  run_one "$workload"
  exit $?
fi

status=0
results=""
for w in spec-sweep traversal alloc-churn fuzz-persistent; do
  log="$here/out/$w-$suffix.log"
  code=0
  run_one "$w" > "$log" || code=$?
  cat "$log"
  # 1 means an oracle failed but the result line was printed
  [ "$code" -le 1 ] || exit "$code"
  [ "$code" -eq 0 ] || status=1
  results="$results${results:+,}\"$w\":$(tail -n 1 "$log")"
done
[ "$trace" = 1 ] && trace_json=true || trace_json=false
printf '{"seed":%s,"trace":%s,"workloads":{%s}}\n' "$seed" "$trace_json" "$results" \
  > "${out:-$here/out/run-$suffix.json}"
exit $status
