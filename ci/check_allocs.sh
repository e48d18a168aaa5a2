#!/usr/bin/env bash
# Allocation ceilings: runs the benchmarks that ci/alloc_ceilings.txt
# names (-benchtime 3x, -benchmem) and fails when any measured value is
# above its ceiling, printing the benchmark, unit, value and ceiling.
# The table holds each ceiling's history beside it.
#
# Usage: ci/check_allocs.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
rows=$(grep -Ev '^[[:space:]]*(#|$)' "$root/ci/alloc_ceilings.txt")

# -bench matches each level of a name on its own, and a benchmark whose
# name is shorter than the pattern only runs its sub-benchmarks, so the
# plain names and the sub-benchmark names (top/sub) run in two passes.
names() { # names NESTED PART: part PART of the plain (0) or nested (1) names
    echo "$rows" | awk -v nested="$1" -v part="$2" \
        '{ n = split($1, p, "/"); if ((n > 1) == nested) print p[part] }' | sort -u | paste -sd'|'
}
bench() {
    cd "$root" && go test ./internal/accel/ ./internal/cluster/ ./internal/mine/ ./internal/graph/ \
        -run '^$' -bench "$1" -benchmem -benchtime 3x
}
out=$(bench "^($(names 0 1))\$")
out+=$'\n'$(bench "^($(names 1 1))\$/^($(names 1 2))\$")
echo "$out"

fail=0
while read -r bench unit ceiling; do
    value=$(echo "$out" | awk -v b="$bench" -v u="$unit" \
        '$1 ~ "^"b"(-[0-9]+)?$" { for (i = 1; i < NF; i++) if ($(i+1) == u) print $i }')
    if [ -z "$value" ]; then
        echo "FAIL: could not parse $unit for $bench from the benchmark output" >&2
        fail=1
    elif [ "$value" -gt "$ceiling" ]; then
        echo "FAIL: $bench $unit $value exceeds the committed ceiling $ceiling" >&2
        fail=1
    else
        echo "$bench: $value $unit (ceiling: $ceiling)"
    fi
done <<<"$rows"
exit "$fail"
