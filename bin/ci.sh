#!/bin/sh
# CI gate: build, the optimised-build flags, tests, API docs (and the
# Table 2 / Figure 10 numbers EXPERIMENTS.md quotes from
# results/paper_experiments.txt), the .mli vals
# with no outside use (vs bin/unused_vals.allow), the polymorphic-compare,
# call-free-counters, hash-free-executor, unchecked-word-scan and
# inlined-dirty-window scan of the hot-path objects
# (bin/poly_scan.sh),
# the examples (each must exit 0), regression-corpus replay (rebuild vs persistent
# mode, byte-compared), a fixed-seed fuzz smoke including a byte-identical
# determinism check of two runs, the pinned paper tables, the
# sharded-execution determinism gate (serial vs --jobs NDJSON diff), and
# the bench gate against the committed bench baseline — which also runs
# once more under --jobs 2 to prove the parallel engine reproduces the
# same event counts.
set -eu

cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# main ARGS...: the CLI under test.
main() { dune exec bin/main.exe -- "$@"; }

# same_bytes EXPECTED ACTUAL WHAT: fail the gate with the diff unless the
# two files are byte-identical.
same_bytes() {
  if ! cmp -s "$1" "$2"; then
    echo "FAIL: $3" >&2
    diff "$1" "$2" >&2 || true
    exit 1
  fi
}

# assert_exit CODE CMD...: the command must exit with exactly CODE.
# 0 success, 1 findings/contract violation, 2 corrupt input, 3 OOM,
# 124 CLI misuse. Bad input and exhaustion must end in a diagnostic and a
# distinct code, never an uncaught exception trace.
assert_exit() {
  want=$1; shift
  rc=0
  "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL: '$*' exited $rc, expected $want" >&2
    exit 1
  fi
}

echo "== build =="
dune build @all

echo "== optimised build =="
# dune-workspace selects the release profile, which compiles without the
# dev profile's -opaque, so hot-path calls across modules are direct and
# inlinable; the root dune file's env stanza adds -inline and keeps the dev
# warnings as errors. Fail if a hot-path module's compile rule carries
# -opaque or lacks -inline, if the dev warning spec is gone, or if -unsafe
# or -noassert shows up anywhere in the flags, the rules or a dune file.
dune printenv . > "$tmpdir/printenv.txt"
for flag in '@1..3@5..28@30..39@43@46..47@49..57@61..62-40' \
  -strict-sequence -strict-formats -short-paths -keep-locs; do
  grep -qF -- "$flag" "$tmpdir/printenv.txt" || {
    echo "FAIL: dune printenv lacks the dev warning spec flag $flag" >&2
    exit 1
  }
done
for m in shadow/shadow_mem:Shadow_mem core/region_check:Region_check \
  core/gs_runtime:Gs_runtime asan/asan_runtime:Asan_runtime \
  memsim/heap:Heap analysis/interp:Interp; do
  mod=${m#*:} m=${m%:*}
  dir=${m%/*}
  dune rules "_build/default/lib/$dir/.giantsan_$dir.objs/native/giantsan_${dir}__$mod.cmx" \
    > "$tmpdir/rule.txt"
  if grep -qE -- '(^|[[:space:]])-opaque([[:space:]]|$)' "$tmpdir/rule.txt"; then
    echo "FAIL: lib/$m.ml compiles with -opaque (dev profile?)" >&2
    exit 1
  fi
  grep -qE -- '(^|[[:space:]])-inline([[:space:]]|$)' "$tmpdir/rule.txt" || {
    echo "FAIL: lib/$m.ml compiles without -inline" >&2
    exit 1
  }
  if grep -nE -- '-unsafe|-noassert' "$tmpdir/rule.txt" >&2; then
    echo "FAIL: lib/$m.ml compiles with -unsafe or -noassert" >&2
    exit 1
  fi
done
if grep -nE -- '-unsafe|-noassert' "$tmpdir/printenv.txt" $(find . -path ./_build -prune \
  -o \( -name dune -o -name dune-workspace -o -name dune-project \) -print) >&2; then
  echo "FAIL: -unsafe or -noassert above; every bounds check and assert stays" >&2
  exit 1
fi
echo "hot-path modules compile without -opaque, with -inline and the dev warnings"

echo "== docs =="
# @doc needs odoc for public packages; the libraries here are private so
# this validates the doc setup cheaply. When odoc is installed we also
# build the private-library docs, which parses every odoc comment.
dune build @doc
if command -v odoc >/dev/null 2>&1; then
  dune build @doc-private
fi
# The measured columns of EXPERIMENTS.md's Table 2 and Figure 10 must
# quote the committed artifact: every percentage on the "Geometric Means"
# row and on Figure 10's "Mean" row of results/paper_experiments.txt has
# to appear in the matching EXPERIMENTS.md section.
# doc_quotes ROW SECTION NEXT: ROW anchors the artifact line, SECTION and
# NEXT the EXPERIMENTS.md heading that opens the section and the one that
# follows it.
doc_quotes() {
  vals=$(grep -m1 "^$1 " results/paper_experiments.txt | grep -o '[0-9.]*%') \
    || { echo "FAIL: no '$1' row in results/paper_experiments.txt" >&2; exit 1; }
  awk -v s="^## $2" -v e="^## $3" '$0 ~ s { on = 1 } on && $0 ~ e { exit } on' \
    EXPERIMENTS.md > "$tmpdir/doc_section.md"
  for v in $vals; do
    re="(^|[^0-9.])$(printf '%s' "$v" | sed 's/[.]/[.]/g')"
    grep -Eq "$re" "$tmpdir/doc_section.md" || {
      echo "FAIL: EXPERIMENTS.md '$2' does not quote $v from the '$1' row of results/paper_experiments.txt" >&2
      exit 1
    }
  done
}
doc_quotes "Geometric Means" "Table 2" "Figure 10"
doc_quotes "Mean" "Figure 10" "Table 3"
echo "EXPERIMENTS.md Table 2 and Figure 10 quote results/paper_experiments.txt"

echo "== unused vals (vs bin/unused_vals.allow) =="
# Every lib/*/*.mli val that no .ml outside its own module mentions must be
# on the allowlist with its reason, and every entry there must still be
# such a val, so the public surface only shrinks on purpose.
bin/unused_vals.sh > /dev/null
echo "every unused .mli val is on bin/unused_vals.allow"

echo "== no polymorphic compare in the hot-path objects, no call in the counter arithmetic, no Hashtbl in the scenario executor, the PAC signature table or the heap's free cache, no checked read in ASan's word scan =="
# This build has no flambda, so a comparison left generic is a C call
# (caml_equal, caml_compare, ...) and Stdlib's min/max are generic
# functions making that call. bin/poly_scan.sh reads the native objects of
# lib/{shadow,memsim,core,asan,lfp,pac,sanitizer,ir,analysis} and fails on
# any such call, a direct call of Stdlib's min/max/compare, or min/max
# taken as a value; library code uses Int.min/Int.max and typed equalities.
# It also fails if Counters.reset or Counters.add, which run on every
# fuzz-mode restore, make any call or reference another symbol, and if
# lib/bugs' Scenario object, whose step executor runs every fuzz exec,
# makes a polymorphic compare or refers to Stdlib's Hashtbl, and if
# lib/pac's Pac object, whose signature table every PAC authentication
# looks up, or lib/memsim's Heap object, whose free cache every malloc and
# every block leaving quarantine looks up, refers to Stdlib's Hashtbl, and
# if Shadow_mem.skip_zero, ASan's word-wide region scan, refers to anything
# but its GC poll.
bin/poly_scan.sh
echo "no polymorphic compare or min/max in the hot-path objects; Counters.reset/add call-free; Scenario, Pac and Heap hash-free; skip_zero unchecked"

echo "== tests =="
dune runtest

echo "== examples =="
# The walkthroughs call the runtime constructors directly: each one must
# run to completion and exit 0.
for ex in examples/*.ml; do
  name=$(basename "$ex" .ml)
  dune exec "examples/$name.exe" > "$tmpdir/example_$name.txt" 2>&1 || {
    cat "$tmpdir/example_$name.txt"
    echo "FAIL: examples/$name.exe exited non-zero" >&2
    exit 1
  }
done
echo "all examples ran and exited 0"

echo "== regression corpus replay (rebuild vs persistent) =="
# Replay in both execution profiles: persistent mode (snapshot once,
# restore between scenarios) must print byte-identical results to
# rebuilding every sanitizer per scenario.
for mode in rebuild persistent; do
  main replay --mode "$mode" test/corpus/regressions \
    > "$tmpdir/replay_$mode.txt" || { cat "$tmpdir/replay_$mode.txt"; exit 1; }
done
cat "$tmpdir/replay_rebuild.txt"
same_bytes "$tmpdir/replay_rebuild.txt" "$tmpdir/replay_persistent.txt" \
  "persistent and rebuild replay of test/corpus/regressions differ"
echo "byte-identical replay across rebuild and persistent modes"

echo "== fuzz smoke (2000 runs, seed 42) =="
main fuzz --runs 2000 --seed 42 -o "$tmpdir/run1.txt"
main fuzz --runs 2000 --seed 42 -o "$tmpdir/run2.txt"

echo "== fuzz determinism =="
same_bytes "$tmpdir/run1.txt" "$tmpdir/run2.txt" \
  "fuzz summaries differ between identical seeded runs"
echo "byte-identical summaries across two seeded runs"

echo "== fuzz-mode smoke (persistent vs rebuild, seed 42) =="
# The fuzz-mode contract: persistent execution (snapshot once, restore
# between execs) must reach the exact same verdicts as rebuilding the
# sanitizers from scratch per exec. Everything but the mode banner line
# must be byte-identical — coverage, corpus, divergences, findings.
main fuzz --runs 800 --seed 42 --mode persistent \
  -o "$tmpdir/fuzz_persistent.txt"
main fuzz --runs 800 --seed 42 --mode rebuild -o "$tmpdir/fuzz_rebuild.txt"
grep -v 'mode=' "$tmpdir/fuzz_persistent.txt" > "$tmpdir/fuzz_p.norm"
grep -v 'mode=' "$tmpdir/fuzz_rebuild.txt" > "$tmpdir/fuzz_r.norm"
same_bytes "$tmpdir/fuzz_p.norm" "$tmpdir/fuzz_r.norm" \
  "persistent and rebuild fuzz modes reached different verdicts"
echo "byte-identical verdicts across persistent and rebuild modes"

echo "== telemetry trace smoke (vs committed expectation) =="
# The trace is byte-deterministic, so it diffs against a checked-in
# expectation: a refactor that drops, adds or reorders an event fails here,
# not only one that makes two runs disagree.
main trace test/corpus/regressions/uaf_then_double_free.scn \
  > "$tmpdir/trace1.ndjson"
same_bytes test/expect/trace_uaf_then_double_free.ndjson "$tmpdir/trace1.ndjson" \
  "trace drifted from test/expect/trace_uaf_then_double_free.ndjson"
main check-ndjson "$tmpdir/trace1.ndjson"

echo "== trace determinism =="
main trace test/corpus/regressions/uaf_then_double_free.scn \
  > "$tmpdir/trace2.ndjson"
same_bytes "$tmpdir/trace1.ndjson" "$tmpdir/trace2.ndjson" \
  "traces differ between identical runs"
echo "byte-identical traces across two runs"

echo "== paper tables (vs committed expectation) =="
# Tables 1-5, Figure 10 and Figure 11 at --quick scale are
# byte-deterministic (Figure 11 prints the cost model's ns/op), so they
# diff against a checked-in expectation, and must reproduce identically
# under --jobs 2.
tables() {
  for t in table1 table2 fig10 table3 table4 table5 fig11; do
    main "$t" --quick "$@" 2> /dev/null
  done
}
tables > "$tmpdir/tables1.txt"
same_bytes test/expect/tables_quick.txt "$tmpdir/tables1.txt" \
  "paper tables drifted from test/expect/tables_quick.txt"
tables --jobs 2 > "$tmpdir/tables2.txt"
same_bytes "$tmpdir/tables1.txt" "$tmpdir/tables2.txt" \
  "paper tables differ between jobs=1 and jobs=2"
echo "byte-identical paper tables, pinned and across jobs"

echo "== parallel sweep determinism (serial vs --jobs 2, shuffled) =="
# The sharded engine must merge to byte-identical output: same stdout
# summary and same NDJSON telemetry regardless of jobs and submission
# order. --shuffle only reorders task submission; results and events are
# always merged back in canonical cell order.
main sweep --quick --jobs 1 \
  --ndjson "$tmpdir/sweep_serial.ndjson" > "$tmpdir/sweep_serial.txt" \
  2> /dev/null
main sweep --quick --jobs 2 --shuffle 7 \
  --ndjson "$tmpdir/sweep_par.ndjson" > "$tmpdir/sweep_par.txt" 2> /dev/null
same_bytes "$tmpdir/sweep_serial.ndjson" "$tmpdir/sweep_par.ndjson" \
  "serial and --jobs 2 sweeps produced different NDJSON"
# stdout embeds the NDJSON output path, so normalise it before diffing
sed "s|$tmpdir/sweep_serial.ndjson|OUT|" "$tmpdir/sweep_serial.txt" \
  > "$tmpdir/sweep_serial.norm"
sed "s|$tmpdir/sweep_par.ndjson|OUT|" "$tmpdir/sweep_par.txt" \
  > "$tmpdir/sweep_par.norm"
same_bytes "$tmpdir/sweep_serial.norm" "$tmpdir/sweep_par.norm" \
  "serial and --jobs 2 sweep summaries differ"
echo "byte-identical NDJSON and summary across jobs=1 and jobs=2"

echo "== chaos smoke (fixed seed, vs committed expectation) =="
# The fault-injection matrix is byte-deterministic for a fixed seed, so it
# diffs against a checked-in expectation — and must reproduce identically
# under --jobs 2 (cells are independent; results render in cell order).
main chaos --seed 42 > "$tmpdir/chaos1.txt"
same_bytes test/expect/chaos_seed42.txt "$tmpdir/chaos1.txt" \
  "chaos output drifted from test/expect/chaos_seed42.txt"
main chaos --seed 42 --jobs 2 > "$tmpdir/chaos2.txt"
same_bytes "$tmpdir/chaos1.txt" "$tmpdir/chaos2.txt" \
  "chaos output differs between jobs=1 and jobs=2"
echo "byte-identical chaos matrix across jobs=1 and jobs=2"

echo "== spec refinement harness (two fixed seeds) =="
# Lockstep refinement of the real sanitizer against the executable spec
# heap: every divergence is a bug in one of the worlds. Two seeds, both
# byte-deterministic; the alternating default/budget0 configs inside each
# run cover quarantine-eviction and bypass paths.
main spec --seed 7 --runs 8 --steps 200
main spec --seed 1234 --runs 8 --steps 200

echo "== spec mutation kills =="
# Plant each chaos fault family into the real shadow plane and require the
# harness to notice. A surviving mutant means the audit lost its teeth.
main spec --seed 7 --runs 2 --steps 40 --mutate all

echo "== spec property suite (pinned qcheck seed) =="
# The @spec alias re-runs the model/kernel/refinement qcheck properties
# under a fixed generator seed so CI failures replay locally verbatim.
QCHECK_SEED=42 dune build --force @spec

echo "== exit-code conventions =="
printf 'alloc 0 not-a-size heap\n' > "$tmpdir/corrupt.scn"
assert_exit 2 main trace "$tmpdir/corrupt.scn"
# steps the runtimes would reject are parse failures, so replay names them
# and exits 1 instead of dying on an uncaught exception
mkdir "$tmpdir/rejected"
printf 'alloc 0 -8 heap\n' > "$tmpdir/rejected/negative_size.scn"
printf 'alloc 0 32 heap\naccess 0 0 0\n' > "$tmpdir/rejected/zero_width.scn"
assert_exit 1 main replay "$tmpdir/rejected"
# a loop of 2^62 offsets, and one whose second step would wrap past
# max_int, are parse failures too: replay exits 1 at once, where an
# unbounded walk would spin until timeout kills it (exit 124)
mkdir "$tmpdir/long_loop" "$tmpdir/wrapping_loop"
printf 'alloc 0 8 heap\nloop 0 0 4611686018427387903 1 1\n' \
  > "$tmpdir/long_loop/long_loop.scn"
printf 'alloc 0 8 heap\nloop 0 4611686018427387902 4611686018427387903 4611686018427387903 1\n' \
  > "$tmpdir/wrapping_loop/wrapping_loop.scn"
assert_exit 1 timeout 10 _build/default/bin/main.exe replay "$tmpdir/long_loop"
assert_exit 1 timeout 10 _build/default/bin/main.exe replay "$tmpdir/wrapping_loop"
# an access or region offset whose off + width would wrap is a parse
# failure as well; replay must name it, since exit 1 alone could also be a
# divergence (false positives on four backends)
for step in 'access 0 4611686018427387900 8' 'region 0 4611686018427387900 8'; do
  rm -rf "$tmpdir/wrapping_offset"
  mkdir "$tmpdir/wrapping_offset"
  printf 'alloc 0 8 heap\n%s\n' "$step" > "$tmpdir/wrapping_offset/wrap.scn"
  rc=0
  _build/default/bin/main.exe replay "$tmpdir/wrapping_offset" \
    > "$tmpdir/wrapping_offset.txt" 2>&1 || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -qF "cannot parse" "$tmpdir/wrapping_offset.txt"; then
    echo "FAIL: replay of '$step' exited $rc without a parse error" >&2
    cat "$tmpdir/wrapping_offset.txt" >&2
    exit 1
  fi
done
printf '{"broken\n' > "$tmpdir/corrupt.ndjson"
assert_exit 2 main check-ndjson "$tmpdir/corrupt.ndjson"
assert_exit 3 main chaos --oom-demo
assert_exit 124 main no-such-subcommand
echo "exit codes 2/3/124 as documented"

echo "== service loop smoke (fixed seed, vs committed expectation) =="
# The multi-tenant service under the virtual clock is byte-deterministic,
# so its stdout diffs against a checked-in expectation, and the flight
# recorder dump must pass the strict NDJSON checker (the new service
# event kinds are on the whitelist).
main serve --seed 7 --tenants 4 --duration 48 \
  --dump-ndjson "$tmpdir/serve.ndjson" > "$tmpdir/serve1.txt" 2> /dev/null
same_bytes test/expect/serve_seed7.txt "$tmpdir/serve1.txt" \
  "serve output drifted from test/expect/serve_seed7.txt"
main check-ndjson "$tmpdir/serve.ndjson"

echo "== service determinism (serial vs --jobs 2) =="
# One pool task per tenant per tick; tenants share nothing, so stdout and
# the recorder dump must be byte-identical for any pool width.
main serve --seed 7 --tenants 4 --duration 48 --jobs 2 \
  --dump-ndjson "$tmpdir/serve_j2.ndjson" > "$tmpdir/serve2.txt" 2> /dev/null
same_bytes "$tmpdir/serve1.txt" "$tmpdir/serve2.txt" \
  "serve stdout differs between jobs=1 and jobs=2"
same_bytes "$tmpdir/serve.ndjson" "$tmpdir/serve_j2.ndjson" \
  "serve recorder dump differs between jobs=1 and jobs=2"
echo "byte-identical service run across jobs=1 and jobs=2"

echo "== service SLO watchdog exit codes =="
# An unmeetable throughput floor must quarantine and exit 1; a malformed
# SLO spec is corrupt input (2); unknown NDJSON kinds are rejected
# strictly but pass with --lax.
assert_exit 1 main serve --seed 7 --tenants 2 --duration 48 --slo ops=999999999
assert_exit 2 main serve --slo p999=banana
printf '{"seq":0,"ev":"wormhole"}\n' > "$tmpdir/foreign.ndjson"
assert_exit 2 main check-ndjson "$tmpdir/foreign.ndjson"
assert_exit 0 main check-ndjson --lax "$tmpdir/foreign.ndjson"
echo "SLO breach exits 1, bad spec 2, strict/lax NDJSON as documented"

echo "== policy engine (fixed spec/seed, vs committed expectation) =="
# PartiSan-style partitioning: under an unmeetable throughput floor every
# tenant must downshift (giantsan -> native under this 1.5x budget) before
# quarantining, and the whole run — assignment lines, downshift lines,
# summary table — is byte-deterministic, pinned against a checked-in
# expectation and reproduced identically under --jobs 2.
policy_spec='budget=1.5,prefer=oob:3;uaf:2,fallback=native'
rc=0
main serve --seed 7 --tenants 4 --duration 48 \
  --slo ops=999999999 --policy "$policy_spec" \
  > "$tmpdir/policy1.txt" 2> /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "FAIL: policy breach run exited $rc, expected 1" >&2
  exit 1
fi
same_bytes test/expect/policy_seed7.txt "$tmpdir/policy1.txt" \
  "policy output drifted from test/expect/policy_seed7.txt"
if ! grep -q '^downshift: ' "$tmpdir/policy1.txt"; then
  echo "FAIL: breached policy run recorded no downshift" >&2
  exit 1
fi
rc=0
main serve --seed 7 --tenants 4 --duration 48 \
  --slo ops=999999999 --policy "$policy_spec" --jobs 2 \
  > "$tmpdir/policy2.txt" 2> /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "FAIL: policy breach run (--jobs 2) exited $rc, expected 1" >&2
  exit 1
fi
same_bytes "$tmpdir/policy1.txt" "$tmpdir/policy2.txt" \
  "policy run differs between jobs=1 and jobs=2"
# exit-code contract: healthy policy run 0, malformed spec 2
assert_exit 0 main serve --seed 7 --tenants 4 \
  --duration 48 --policy "$policy_spec"
assert_exit 2 main serve --policy budget=0.5
assert_exit 2 main serve --policy speed=11
echo "policy downshifts pinned, byte-identical across jobs, exits 1/0/2"

echo "== bench gate (vs BENCH_giantsan.json baseline) =="
# The deterministic profile, fig11 and fuzz-mode rows, judged by one rule
# table (EXPERIMENTS.md): exact event counts, ns/op within ±25%, the fig11
# reverse word path and GiantSan-vs-ASan order, and fuzz-mode equivalence
# and speedup. The document holds only these deterministic rows and the
# service section; bench/e2e is the wall-clock harness.
dune exec bench/main.exe -- --telemetry "$tmpdir/bench.json" > /dev/null
main gate BENCH_giantsan.json "$tmpdir/bench.json"

echo "== bench gate under sharding (--jobs 2) =="
# sim_ns is derived from deterministic event counts, never wall-clock, so
# the same baseline must hold bit-for-bit when the sweep runs sharded.
dune exec bench/main.exe -- --jobs 2 --telemetry "$tmpdir/bench_j2.json" \
  > /dev/null
main gate BENCH_giantsan.json "$tmpdir/bench_j2.json"

echo "== bench gate exit codes =="
# Unreadable or unparsable input is 2, a violation is 1: here a fig11
# reverse row doctored to zero word-path checks. The bench itself, run
# without --telemetry, has nothing to do and is a usage error (2).
assert_exit 2 dune exec bench/main.exe
assert_exit 2 main gate BENCH_giantsan.json "$tmpdir/no-such-bench.json"
printf '{"broken\n' > "$tmpdir/corrupt_bench.json"
assert_exit 2 main gate BENCH_giantsan.json "$tmpdir/corrupt_bench.json"
sed 's/\("profile":"fig11.reverse-16KiB","config":"giantsan"[^}]*"word_checks":\)[0-9]*/\10/' \
  "$tmpdir/bench.json" > "$tmpdir/doctored_bench.json"
assert_exit 1 main gate "$tmpdir/doctored_bench.json" \
  "$tmpdir/doctored_bench.json"
echo "gate exits 2 on missing/corrupt input, 1 on a violation; bare bench exits 2"

echo "== ci green =="
