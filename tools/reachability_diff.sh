#!/bin/sh
# The diff step of the reachability scan (tools/reachability.sh): which
# cobra:: functions of libcobra.a does no non-test binary link?
#
# Usage:
#   tools/reachability_diff.sh LIB_NM EXE_NM ALLOWLIST
#
#   LIB_NM     `nm --defined-only libcobra.a` output
#   EXE_NM     `nm --defined-only` output of every executable, concatenated
#   ALLOWLIST  one mangled symbol per line, then its reason; `#` comments
#
# A library symbol counts when it is a global or weak text symbol
# (T/W) whose MANGLED name is in namespace cobra (_ZN5cobra / _ZNK5cobra).
# Matching the mangled name keeps out std:: templates instantiated on a
# cobra type (std::deque<cobra::...>), whose demangled text mentions cobra
# but whose mangled name starts _ZNSt. An executable reaches a symbol when
# it defines it with kind T/t/W/w. Names are demangled for the report only.
#
# Prints every unreached symbol that the allowlist does not name, and every
# allowlist line that is stale: its symbol is gone from the library, or a
# binary now reaches it. Exit codes: 0 = clean, 1 = findings, 2 = usage.
set -eu
export LC_ALL=C  # one collation for sort, comm and join

if [ $# -ne 3 ]; then
  echo "usage: $0 LIB_NM EXE_NM ALLOWLIST" >&2
  exit 2
fi
lib_nm=$1
exe_nm=$2
allow=$3

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# "<mangled> <object>" for each cobra:: T/W symbol of the archive; nm heads
# each member's block with a "name.o:" line.
awk '/^[^ ]+\.o:$/ { obj = substr($0, 1, length($0) - 1); next }
     NF == 3 && ($2 == "T" || $2 == "W") && $3 ~ /^_ZNK?5cobra/ {
       print $3, obj
     }' "$lib_nm" | sort -u -k1,1 > "$tmp/lib_obj"
cut -d' ' -f1 "$tmp/lib_obj" > "$tmp/lib"
awk 'NF == 3 && $2 ~ /^[TtWw]$/ { print $3 }' "$exe_nm" | sort -u > "$tmp/exe"
awk '!/^[ \t]*(#|$)/ { print $1 }' "$allow" | sort -u > "$tmp/allow"
awk '!/^[ \t]*(#|$)/ && NF < 2 { print $1 }' "$allow" > "$tmp/no_reason"

comm -23 "$tmp/lib" "$tmp/exe" > "$tmp/unreached"
comm -23 "$tmp/unreached" "$tmp/allow" > "$tmp/dead"
comm -23 "$tmp/allow" "$tmp/lib" > "$tmp/gone"
comm -12 "$tmp/allow" "$tmp/exe" > "$tmp/reached"

# Two report lines per symbol: the demangled name, then object and mangled
# name (object "-" for a stale allowlist line the library lacks).
describe() {
  join -a1 -e- -o 0,2.2 "$1" "$tmp/lib_obj" > "$tmp/rows"
  cut -d' ' -f1 "$tmp/rows" | c++filt > "$tmp/names"
  paste -d'\n' "$tmp/names" "$tmp/rows" \
    | awk 'NR % 2 { print "  " $0; next } { print "      " $2 "  " $1 }'
}

status=0
printf 'libcobra: %d cobra:: functions, %d reached by no non-test binary, %d of those allowlisted\n' \
  "$(wc -l < "$tmp/lib")" "$(wc -l < "$tmp/unreached")" \
  "$(comm -12 "$tmp/unreached" "$tmp/allow" | wc -l)"
if [ -s "$tmp/dead" ]; then
  status=1
  printf '\nUNREACHED (%d): no bench, example, tool or perfbench links these.\n' \
    "$(wc -l < "$tmp/dead")"
  printf 'Delete each, move it to tests/support, or allowlist it with a reason.\n'
  describe "$tmp/dead"
fi
if [ -s "$tmp/gone" ]; then
  status=1
  printf '\nSTALE ALLOWLIST (%d): the library no longer defines these.\n' \
    "$(wc -l < "$tmp/gone")"
  describe "$tmp/gone"
fi
if [ -s "$tmp/reached" ]; then
  status=1
  printf '\nSTALE ALLOWLIST (%d): a non-test binary now reaches these.\n' \
    "$(wc -l < "$tmp/reached")"
  describe "$tmp/reached"
fi
if [ -s "$tmp/no_reason" ]; then
  status=1
  printf '\nALLOWLIST LINES WITHOUT A REASON (%d):\n' "$(wc -l < "$tmp/no_reason")"
  sed 's/^/  /' "$tmp/no_reason"
fi
exit $status
