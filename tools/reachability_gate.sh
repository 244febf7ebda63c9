#!/usr/bin/env bash
# Reachability gate: src/ holds only code that a shipped binary runs.
#
# Builds the root project and benchmark/ unoptimised, one section per
# function, and links with --gc-sections so that every function nothing
# references is dropped from the executables. A strong (`T`) symbol of
# a src/ library that no shipped executable still contains is reached
# only by tests, or by nothing, and fails the gate.
#
# The shipped set comes from the build trees: every executable the two
# builds produce that does not link GoogleTest (the CLI, bench_diff,
# the bench_* tables, the examples and mflstm_sysbench). There is no
# exception list.
#
# Usage: tools/reachability_gate.sh
# Builds into build-reachability/ at the repository root; exits 1 and
# lists the symbols when any src/ symbol is unreachable.
set -euo pipefail
export LC_ALL=C  # sort and comm must agree on one collation

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/build-reachability
flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -fno-inline -ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

for project in root benchmark; do
    src=$root
    [ "$project" = benchmark ] && src=$root/benchmark
    cmake -S "$src" -B "$out/$project" "${flags[@]}" >/dev/null
    cmake --build "$out/$project" -j "$(nproc)" >/dev/null
done

# Demangled names of the defined symbols of the given types.
defined() {
    local types=$1
    shift
    nm -C --defined-only "$@" 2>/dev/null |
        sed -n "s/^[0-9a-f]* [$types] //p" | sort -u
}

shipped=()
while IFS= read -r exe; do
    [ "$(head -c 4 "$exe" | tr -d '\0')" = $'\x7fELF' ] || continue
    # Not grep -q: nm would die of SIGPIPE and fail the pipeline.
    nm -C "$exe" | grep ' testing::' >/dev/null && continue
    shipped+=("$exe")
done < <(find "$out/root" "$out/benchmark" -type f -executable \
              -not -path '*/CMakeFiles/*' | sort)
if [ "${#shipped[@]}" -eq 0 ]; then
    echo "reachability gate: no shipped executable was built" >&2
    exit 1
fi

reached=$(mktemp)
trap 'rm -f "$reached"' EXIT
defined A-Za-z "${shipped[@]}" >"$reached"

total=0
unreached=0
for lib in "$out"/root/src/*/*.a; do
    name=$(basename "$lib" .a)
    total=$((total + $(defined T "$lib" | wc -l)))
    while IFS= read -r sym; do
        echo "  ${name#lib}: $sym"
        unreached=$((unreached + 1))
    done < <(defined T "$lib" | comm -23 - "$reached")
done

if [ "$unreached" -gt 0 ]; then
    echo "reachability gate: $unreached of $total strong src/ symbols" \
         "are in no shipped executable (${#shipped[@]} checked)" >&2
    exit 1
fi
echo "reachability gate: all $total strong src/ symbols are in a" \
     "shipped executable (${#shipped[@]} checked)"
