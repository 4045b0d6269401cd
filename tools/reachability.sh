#!/bin/sh
# Reachability scan: libcobra holds only what a non-test binary runs.
#
# Usage:
#   tools/reachability.sh SCRATCH_DIR
#
# Builds the tree twice under SCRATCH_DIR, tests off, at -O0 with
# -ffunction-sections -fdata-sections, every executable linked with
# -Wl,--gc-sections:
#   SCRATCH_DIR/tree       the top-level project: benches, examples, tools
#   SCRATCH_DIR/perfbench  perfbench/ as its own package
# then hands libcobra.a's symbols and the union of every executable's to
# tools/reachability_diff.sh, which subtracts tools/reachability_allow.txt.
# -O0 matters: at -O2 a function a binary does call can be inlined into
# it, and the scan would call it dead.
#
# The report (SCRATCH_DIR/reachability_report.txt, also printed) ends with
# what the symbol scan cannot see: header-only code. It lists the src/
# headers that no header, bench, example, tool or perfbench source
# includes; their inline code reaches a binary only where the library
# .cpp files named beside them emit it, and a use in a constant
# expression (a static_assert) emits nothing.
#
# Exit codes: 0 = every cobra:: function is reached or allowlisted,
# 1 = findings (see the report), 2 = usage or build error.
set -eu
export LC_ALL=C

if [ $# -ne 1 ]; then
  echo "usage: $0 SCRATCH_DIR" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
jobs=$(nproc 2>/dev/null || echo 2)

# A build type of its own, so no Release/Debug flags (-O3, -march=native,
# -g) join in. NDEBUG as in the shipped binaries: code only an assert
# calls is not run by them.
configure() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=ReachabilityScan \
    -DCMAKE_CXX_FLAGS="-O0 -DNDEBUG -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
    -DCOBRA_BUILD_TESTS=OFF -DCOBRA_BUILD_BENCH=ON \
    -DCOBRA_BUILD_EXAMPLES=ON > "$2.configure.log" 2>&1 \
    && cmake --build "$2" -j "$jobs" > "$2.build.log" 2>&1 \
    || { echo "reachability: build of $1 failed, see $2.*.log" >&2; exit 2; }
}
configure "$root" "$out/tree"
configure "$root/perfbench" "$out/perfbench"

lib="$out/tree/src/libcobra.a"
nm --defined-only "$lib" > "$out/lib.nm"
: > "$out/exe.nm"
: > "$out/executables.txt"
for f in $(find "$out/tree" "$out/perfbench" -type f -perm -u+x \
             ! -path '*/CMakeFiles/*' | sort); do
  # Skip anything executable that is not an object file (scripts).
  if nm --defined-only "$f" >> "$out/exe.nm" 2>/dev/null; then
    echo "${f#"$out"/}" >> "$out/executables.txt"
  fi
done

report="$out/reachability_report.txt"
status=0
{
  echo "reachability scan of $lib"
  echo "$(wc -l < "$out/executables.txt") executables:" \
    $(sed 's|.*/||' "$out/executables.txt")
  "$root/tools/reachability_diff.sh" "$out/lib.nm" "$out/exe.nm" \
    "$root/tools/reachability_allow.txt" || status=$?
  echo
  echo "NOT SEEN (header-only code): src/ headers that no header and no"
  echo "bench, example, tool or perfbench source includes, with their"
  echo "library includers besides their own .cpp:"
  cd "$root"
  for h in $(cd src && find . -name '*.hpp' | sed 's|^\./||' | sort); do
    own="src/${h%.hpp}.cpp"
    users=$(grep -rlE "^[[:space:]]*#[[:space:]]*include[[:space:]]*\"$h\"" \
              src bench examples tools perfbench/src | sort | grep -vxF "$own" || true)
    if [ -z "$(echo "$users" | grep -vE '^src/.*\.cpp$' || true)" ]; then
      echo "  $h:" ${users:-"(none: only tests include it)"}
    fi
  done
} > "$report" || status=$?
cat "$report"
exit $status
