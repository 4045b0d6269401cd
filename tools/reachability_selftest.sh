#!/bin/sh
# Self-test of the reachability scan's diff step: feed
# tools/reachability_diff.sh canned nm listings and check its verdicts.
#
# Usage: tools/reachability_selftest.sh
set -eu

diff_step="$(cd "$(dirname "$0")" && pwd)/reachability_diff.sh"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "FAIL: $1" >&2
  cat "$tmp/out" >&2
  exit 1
}

# The library defines foo and bar (T), a std::deque helper instantiated on a
# cobra type (W, mangled _ZNKSt...), a file-local function (t) and refers to
# baz; one executable links foo.
cat > "$tmp/lib.nm" <<'EOF'

walk.cpp.o:
0000000000000000 T _ZN5cobra4core3fooEv
0000000000000010 T _ZN5cobra4core3barEv
0000000000000020 W _ZNKSt5dequeIN5cobra3obs5GaugeESaIS2_EE4sizeEv
0000000000000030 t _ZN5cobra4core12_GLOBAL__N_15localEv
                 U _ZN5cobra4core3bazEv
EOF
cat > "$tmp/exe.nm" <<'EOF'
0000000000001000 T main
0000000000001100 T _ZN5cobra4core3fooEv
EOF

run() {  # run ALLOWLIST_TEXT -> exit code of the diff step, output in out
  printf '%s' "$1" > "$tmp/allow"
  code=0
  "$diff_step" "$tmp/lib.nm" "$tmp/exe.nm" "$tmp/allow" > "$tmp/out" 2>&1 \
    || code=$?
}

# 1. An unlisted unreached symbol fails, named by its demangled name; the
#    std::deque helper and the local function stay out of the report.
run ''
[ "$code" -eq 1 ] || fail "unlisted symbol: exit $code, want 1"
grep -q 'cobra::core::bar()' "$tmp/out" || fail "bar() not reported"
grep -q '_ZN5cobra4core3barEv' "$tmp/out" || fail "bar's mangled name missing"
if grep -q 'std::deque\|foo()\|local' "$tmp/out"; then
  fail "reported a symbol that is reached or not a cobra:: function"
fi

# 2. The same symbol allowlisted with a reason passes.
run '# comment line
_ZN5cobra4core3barEv tests use it
'
[ "$code" -eq 0 ] || fail "allowlisted symbol: exit $code, want 0"

# 3. A stale allowlist line (the library no longer defines it) fails.
run '_ZN5cobra4core3barEv tests use it
_ZN5cobra4core3gonEv deleted long ago
'
[ "$code" -eq 1 ] || fail "stale allowlist line: exit $code, want 1"
grep -q 'STALE' "$tmp/out" || fail "stale line not reported"
grep -q 'cobra::core::gon()' "$tmp/out" || fail "stale symbol not named"

# 4. An allowlisted symbol that a binary reaches is stale too, and a line
#    without a reason fails.
run '_ZN5cobra4core3barEv tests use it
_ZN5cobra4core3fooEv reached after all
'
[ "$code" -eq 1 ] || fail "reached allowlist line: exit $code, want 1"
run '_ZN5cobra4core3barEv
'
[ "$code" -eq 1 ] || fail "allowlist line without reason: exit $code, want 1"

echo "reachability diff self-test: 4 cases pass"
