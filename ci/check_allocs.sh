#!/usr/bin/env bash
# Allocation ceilings.
#
# BenchmarkSimulate allocs/op must stay at or below the ceiling in
# ci/allocs_ceiling.txt. The calendar-queue/pooled-event engine brought
# the run from ~253k allocs/op to ~2.4k (BENCH_0006.json); this guard
# catches any change that quietly reintroduces per-event or per-task
# allocation.
#
# BenchmarkSimulateSamplerOn B/op must stay at or below the ceiling in
# ci/sampler_bytes_ceiling.txt. One latency histogram per name per chip
# (not per PE) and sampler columns that grow with the run took it from
# ~1,101 KB/op to ~951 KB/op (at this script's -benchtime 3x); this
# guard keeps telemetry storage from creeping back.
#
# Tighten a ceiling when the number drops (never raise it for
# convenience — a real regression should be fixed, not accommodated).
#
# Usage: ci/check_allocs.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
ceiling=$(tr -d '[:space:]' < "$root/ci/allocs_ceiling.txt")
bytes_ceiling=$(tr -d '[:space:]' < "$root/ci/sampler_bytes_ceiling.txt")

out=$(cd "$root" && go test ./internal/accel/ -run '^$' \
    -bench 'BenchmarkSimulate$|BenchmarkSimulateSamplerOn$' -benchmem -benchtime 3x)
echo "$out"

# field BENCH UNIT prints the value preceding UNIT on BENCH's line.
field() {
    echo "$out" | awk -v b="$1" -v u="$2" '$1 ~ "^"b"(-[0-9]+)?$" { for (i=1;i<NF;i++) if ($(i+1)==u) print $i }'
}

allocs=$(field BenchmarkSimulate allocs/op)
if [ -z "$allocs" ]; then
    echo "FAIL: could not parse allocs/op from benchmark output" >&2
    exit 1
fi
echo "BenchmarkSimulate: ${allocs} allocs/op (ceiling: ${ceiling})"
if [ "$allocs" -gt "$ceiling" ]; then
    echo "FAIL: allocs/op ${allocs} exceeds the committed ceiling ${ceiling}" >&2
    exit 1
fi

bytes=$(field BenchmarkSimulateSamplerOn B/op)
if [ -z "$bytes" ]; then
    echo "FAIL: could not parse B/op for BenchmarkSimulateSamplerOn" >&2
    exit 1
fi
echo "BenchmarkSimulateSamplerOn: ${bytes} B/op (ceiling: ${bytes_ceiling})"
if [ "$bytes" -gt "$bytes_ceiling" ]; then
    echo "FAIL: B/op ${bytes} exceeds the committed ceiling ${bytes_ceiling}" >&2
    exit 1
fi
