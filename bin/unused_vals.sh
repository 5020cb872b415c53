#!/bin/sh
# Lists every top-level `val` of lib/*/*.mli whose name no .ml file outside
# its own module mentions, one Module.name a line. lib, bin, bench, test
# and examples are searched. Exits 1 if an unused val is missing from
# bin/unused_vals.allow, or an entry there is no longer an unused val.
#
#   bin/unused_vals.sh
#
# A use is any whole-word occurrence of the name, so the scan misses an
# unused val whose name is common (create, pp), but never reports a used
# one.
set -eu

cd "$(dirname "$0")/.."
allow=bin/unused_vals.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find lib bin bench test examples -name '*.ml' -not -path '*/_build/*' \
  | sort > "$tmp/sources"
for mli in lib/*/*.mli; do
  mod=$(basename "$mli" .mli | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  others=$(grep -vxF "${mli%i}" "$tmp/sources")
  for v in $(grep -oE '^val [a-z_][A-Za-z0-9_]*' "$mli" | awk '{ print $2 }'); do
    grep -qw "$v" $others || echo "$mod.$v"
  done
done | sort > "$tmp/found"
cat "$tmp/found"

grep -v '^#' "$allow" | awk 'NF { print $1 }' | sort > "$tmp/listed"
status=0
for v in $(comm -23 "$tmp/found" "$tmp/listed"); do
  echo "FAIL: $v has no use outside its module: use it, drop it from the .mli, or list it in $allow with a reason" >&2
  status=1
done
for v in $(comm -13 "$tmp/found" "$tmp/listed"); do
  echo "FAIL: $allow lists $v, which is no longer an unused val: remove the entry" >&2
  status=1
done
exit $status
