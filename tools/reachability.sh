#!/usr/bin/env bash
# Linker reachability gate. Lists the qopt:: functions compiled from src/
# that no shipped binary links, and fails when one of them is missing from
# tools/reachability_allowlist.txt (or when an allowlist entry no longer
# names such a function).
#
# Every shipped binary is built with one section per function at -O0
# -fno-inline and linked with --gc-sections, so a function's code survives
# in a binary only if something reachable from that binary's entry points
# refers to it. The shipped binaries are qqo, qqo_serve, qqo_lint, every
# bench (bench/*.cc), every example (examples/*.cpp) and perfbench/'s
# standalone qqo_perfbench, configured from its own CMakeLists.txt as is.
# `nm -C --defined-only` of the src/ objects, minus the union over the
# binaries, is the set of functions only tests (or nothing) call.
#
# Function-local lambdas and classes are folded into their enclosing
# function. An anonymous-namespace function is matched by its demangled
# name, so two same-named helpers in different files count as one, and a
# qopt:: function template (demangled behind its return type) is not seen,
# nor is an inline function that no src/ object calls.
#
# usage: tools/reachability.sh [work-dir]     (default: build-reach)
#   JOBS=N sets the build parallelism (default 2).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-$root/build-reach}
jobs=${JOBS:-2}
allowlist=$root/tools/reachability_allowlist.txt

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
cmake -S "$root" -B "$work/main" "${flags[@]}" > /dev/null
cmake -S "$root/perfbench" -B "$work/perfbench" "${flags[@]}" > /dev/null

targets=(qqo_cli qqo_serve_bin qqo_lint)
binaries=("$work/main/tools/qqo" "$work/main/tools/qqo_serve"
          "$work/main/tools/qqo_lint" "$work/perfbench/qqo_perfbench")
for source in "$root"/bench/*.cc; do
  name=$(basename "$source" .cc)
  targets+=("$name")
  binaries+=("$work/main/bench/$name")
done
for source in "$root"/examples/*.cpp; do
  name=$(basename "$source" .cpp)
  targets+=("example_$name")
  binaries+=("$work/main/examples/$name")
done
cmake --build "$work/main" -j "$jobs" --target "${targets[@]}"
cmake --build "$work/perfbench" -j "$jobs" --target qqo_perfbench

# Demangled qopt:: functions defined in the text of the given files, one
# per line, with "(anonymous namespace)" spelled "{anonymous}". A lambda or
# local class inside a function ("F(int)::{lambda..." or
# "F(int) const::Agg::Agg()") folds into F; a std:: template instantiation
# whose return type is a qopt:: type is dropped.
functions() {
  nm -C --defined-only "$@" |
    awk '$2 ~ /^[TtWw]$/ { $1 = ""; $2 = ""; print substr($0, 3) }' |
    sed -E -e 's/\(anonymous namespace\)/{anonymous}/g' \
        -e 's/::\{lambda\(.*$//' \
        -e 's/^(qopt::[^(]*\([^)]*\)( const)?)::.*$/\1/' |
    { grep -E '^qopt::' || true; } | { grep -vE '^[^(]* std::' || true; } |
    sort -u
}

objects=$(find "$work/main/src" -name '*.o' | sort)
# shellcheck disable=SC2086
functions $objects > "$work/src_functions.txt"
functions "${binaries[@]}" > "$work/linked_functions.txt"
comm -23 "$work/src_functions.txt" "$work/linked_functions.txt" \
  > "$work/unlinked_functions.txt"

# Allowlist lines: "<function> # <kind>: <why>", where kind is oracle,
# reference, test seam or test observer.
if grep -vE '^(#|$)' "$allowlist" |
    grep -vE ' # (oracle|reference|test seam|test observer): [^ ]'; then
  echo "reachability: the allowlist lines above name no reason" \
       "(oracle, reference, test seam or test observer)" >&2
  exit 1
fi
{ grep -vE '^(#|$)' "$allowlist" || true; } | sed -E 's/ # .*$//' |
  sort -u > "$work/allowed_functions.txt"

status=0
unlisted=$(comm -23 "$work/unlinked_functions.txt" \
                    "$work/allowed_functions.txt")
if [ -n "$unlisted" ]; then
  echo "reachability: no shipped binary links these src/ functions, and" \
       "the allowlist does not name them (delete them, or allowlist them" \
       "with a reason):" >&2
  echo "$unlisted" >&2
  status=1
fi
stale=$(comm -13 "$work/unlinked_functions.txt" \
                 "$work/allowed_functions.txt")
if [ -n "$stale" ]; then
  echo "reachability: these allowlist entries name no unlinked src/" \
       "function (linked now, renamed or deleted; drop them):" >&2
  echo "$stale" >&2
  status=1
fi
echo "reachability: $(wc -l < "$work/unlinked_functions.txt") unlinked" \
     "src/ function(s), $(wc -l < "$work/allowed_functions.txt")" \
     "allowlisted"
exit "$status"
