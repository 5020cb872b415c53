#!/bin/sh
# Scans the native objects of the hot-path libraries for polymorphic
# comparison: prints each hit as object, function and what it calls or
# loads, and exits 1 if there is one.
#
#   bin/poly_scan.sh [DIR]     # DIR: a built checkout (default: this one)
#
# This build has no flambda, so a comparison the type checker cannot
# specialise to ints stays a C call (caml_equal, caml_compare, ...), and
# Stdlib's min/max are polymorphic functions whose bodies make that call.
# A hit is any of:
#   - a relocation to caml_(equal|notequal|compare|lessthan|lessequal|
#     greaterthan|greaterequal): a generic =, <>, compare, <, <=, >, >=
#     (also one used as a value, whose wrapper calls the primitive);
#   - a relocation to camlStdlib.(min|max|compare)_*: a direct call of
#     Stdlib's generic min, max or compare;
#   - a load of Stdlib's min or max closure out of the Stdlib module block
#     (min or max passed as a value). The field offsets are read off a
#     probe compiled here with the same ocamlopt, and the register the
#     block is loaded into is followed until it is overwritten, a call,
#     an unconditional jump or a return.
# Library code uses Int.min/Int.max and typed equalities instead.
#
# Of lib/bugs only the Scenario object is scanned: its step executor runs
# every fuzz exec. It gets the rules above plus one, which lib/pac's Pac
# object and lib/memsim's Heap object get too: any relocation to Stdlib's
# Hashtbl (its functions or its module block) is a hit, since generic
# hashing costs a caml_hash call per lookup. Scenario's slots, PAC's
# signature table (looked up on every authentication) and the heap's free
# cache (looked up on every malloc and every block leaving quarantine)
# live in int tables instead.
#
# It also fails if Counters.reset or Counters.add (lib/sanitizer) makes a
# call: they run on every fuzz-mode restore and are written out field by
# field, so any call, indirect jump or relocation there (a reference to
# another function or a global: Metric's closure walk over the spec, a tail
# call, a stack-growth check) is a hit, and so is either function missing
# from the object.
#
# And it fails if Shadow_mem.skip_zero (lib/shadow), ASan's word-wide
# region scan, has a relocation to anything but caml_call_gc (the loop's
# GC poll) or an indirect call or jump: it reads the shadow with unchecked
# 64-bit loads, so a bounds check (caml_ml_array_bound_error), a call of
# Bytes.get_int64_le or any other function is a hit, and so is the kernel
# missing from the object.
set -eu

cd "${1:-$(dirname "$0")/..}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# stdlib_loads BAD: reads objdump -dr output on stdin; prints
# "<function> <hit>" for every hit, BAD being the space-separated field
# offsets (0x..) of Stdlib's min and max, or "any" to print every field
# load from the Stdlib block.
stdlib_loads() {
  awk -v bad="$1" '
    BEGIN { n = split(bad, b, " "); for (i = 1; i <= n; i++) badoff[b[i]] = 1 }
    /^[0-9a-f]+ <.*>:$/ { fn = $2; reg = ""; next }
    /R_X86_64_/ {
      sym = $NF
      if (sym ~ /^caml_(equal|notequal|compare|lessthan|lessequal|greaterthan|greaterequal)([-+]|$)/ ||
          sym ~ /^camlStdlib\.(min|max|compare)_/) print fn, sym
      else if (sym ~ /^camlStdlib([-+]|$)/) reg = last_dst
      next
    }
    /^ +[0-9a-f]+:\t/ {
      insn = $0
      sub(/^ +[0-9a-f]+:\t/, "", insn)
      sub(/ *#.*$/, "", insn)
      op = insn; sub(/ .*$/, "", op)
      args = insn; sub(/^[^ ]* */, "", args)
      if (reg != "" && match(args, "^-?0x[0-9a-f]+\\(%" reg "\\)")) {
        off = substr(args, 1, index(args, "(") - 1)
        if (bad == "any" || off in badoff) print fn, "camlStdlib+" off
      }
      dst = args; sub(/^.*,/, "", dst)
      last_dst = (dst ~ /^%[a-z0-9]+$/) ? substr(dst, 2) : ""
      if (op ~ /^(call|jmp|ret)/ || (reg != "" && last_dst == reg)) reg = ""
      next
    }'
}

# The probe takes min and max as values, the only way they reach the
# Stdlib block instead of a direct call.
printf 'let probe () = Sys.opaque_identity (min, max)\n' > "$tmp/probe.ml"
(cd "$tmp" && ocamlopt -c probe.ml)
minmax=$(objdump -dr --no-show-raw-insn "$tmp/probe.o" | stdlib_loads any \
  | awk '{ sub(/^camlStdlib\+/, "", $2); print $2 }' | sort -u | tr '\n' ' ')
if [ "$(echo $minmax | wc -w)" -ne 2 ]; then
  echo "FAIL: the probe loads '$minmax' from Stdlib, expected min and max" >&2
  exit 1
fi

for d in shadow memsim core asan lfp pac sanitizer ir analysis; do
  set -- _build/default/lib/$d/.giantsan_$d.objs/native/*.o
  [ -e "$1" ] || { echo "FAIL: no native objects for lib/$d; build first" >&2; exit 1; }
  for o in "$@"; do
    objdump -dr --no-show-raw-insn "$o" | stdlib_loads "$minmax" \
      | sed "s|^|${o##*/} |"
  done
done > "$tmp/hits"

counters=_build/default/lib/sanitizer/.giantsan_sanitizer.objs/native/giantsan_sanitizer__Counters.o
objdump -dr --no-show-raw-insn "$counters" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    fn = $2
    on = fn ~ /^<camlGiantsan_sanitizer__Counters\.(reset|add)_[0-9]+>:$/
    if (on) seen++
    next
  }
  on && /R_X86_64_/ { print fn, "relocation to " $NF; next }
  on && /^ +[0-9a-f]+:\t(call|jmp +\*)/ { sub(/^ +[0-9a-f]+:\t/, ""); print fn, $0 }
  END { if (seen != 2) print "Counters.o:", seen + 0, "of reset/add found, expected 2" }' \
  | sed "s|^|${counters##*/} |" >> "$tmp/hits"
shadow=_build/default/lib/shadow/.giantsan_shadow.objs/native/giantsan_shadow__Shadow_mem.o
objdump -dr --no-show-raw-insn "$shadow" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    fn = $2
    on = fn ~ /^<camlGiantsan_shadow__Shadow_mem\.skip_zero_[0-9]+>:$/
    if (on) seen++
    next
  }
  on && /R_X86_64_/ && $NF !~ /^caml_call_gc([-+]|$)/ { print fn, "relocation to " $NF; next }
  on && /^ +[0-9a-f]+:\t(call|jmp) +\*/ { sub(/^ +[0-9a-f]+:\t/, ""); print fn, $0 }
  END { if (seen != 1) print "Shadow_mem.o:", seen + 0, "skip_zero found, expected 1" }' \
  | sed "s|^|${shadow##*/} |" >> "$tmp/hits"
scenario=_build/default/lib/bugs/.giantsan_bugs.objs/native/giantsan_bugs__Scenario.o
[ -e "$scenario" ] || { echo "FAIL: no native object for lib/bugs Scenario; build first" >&2; exit 1; }
objdump -dr --no-show-raw-insn "$scenario" | stdlib_loads "$minmax" \
  | sed "s|^|${scenario##*/} |" >> "$tmp/hits"
for o in "$scenario" _build/default/lib/pac/.giantsan_pac.objs/native/giantsan_pac__Pac.o \
  _build/default/lib/memsim/.giantsan_memsim.objs/native/giantsan_memsim__Heap.o; do
  [ -e "$o" ] || { echo "FAIL: no native object $o; build first" >&2; exit 1; }
  objdump -dr --no-show-raw-insn "$o" | awk '/^[0-9a-f]+ <.*>:$/ { fn = $2; next }
    /R_X86_64_/ && $NF ~ /^camlStdlib__Hashtbl([.+-]|$)/ { print fn, $NF }' \
    | sed "s|^|${o##*/} |"
done >> "$tmp/hits"
if [ -s "$tmp/hits" ]; then
  cat "$tmp/hits"
  exit 1
fi
