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
# ~1,101 KB/op to ~951 KB/op (at this script's -benchtime 3x), and one
# 32-bit word per cache way (not 17 bytes a line) to ~711 KB/op; this
# guard keeps telemetry and cache storage from creeping back.
#
# BenchmarkClusterSimulate/chips=16 B/op must stay at or below the
# ceiling in ci/cluster_bytes_ceiling.txt. Sixteen chips build 16 L2s
# and 32 L1s for a short run, so cache state is most of what the run
# allocates: one 32-bit word per way took it from ~5,689 KB/op to
# ~2,052 KB/op; this guard keeps per-chip state from growing back.
#
# BenchmarkClusterSimulateSampled/chips=16 B/op must stay at or below
# the ceiling in ci/cluster_sampled_bytes_ceiling.txt. It is the same
# 16-chip machine sampling every 512 cycles. When every chip kept its
# own sampler and five 15 KB histograms, it allocated ~3,525 KB/op. One
# telemetry bundle for the machine (one sampler, one tick, five
# histograms) took it to ~2,236 KB/op; this guard keeps telemetry from
# going back to one copy per chip.
#
# Tighten a ceiling when the number drops (never raise it for
# convenience — a real regression should be fixed, not accommodated).
#
# Usage: ci/check_allocs.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
ceiling=$(tr -d '[:space:]' < "$root/ci/allocs_ceiling.txt")
bytes_ceiling=$(tr -d '[:space:]' < "$root/ci/sampler_bytes_ceiling.txt")
cluster_ceiling=$(tr -d '[:space:]' < "$root/ci/cluster_bytes_ceiling.txt")
sampled_ceiling=$(tr -d '[:space:]' < "$root/ci/cluster_sampled_bytes_ceiling.txt")

out=$(cd "$root" && go test ./internal/accel/ -run '^$' \
    -bench 'BenchmarkSimulate$|BenchmarkSimulateSamplerOn$' -benchmem -benchtime 3x)
out+=$'\n'$(cd "$root" && go test ./internal/cluster/ -run '^$' \
    -bench '^BenchmarkClusterSimulate(Sampled)?$/^chips=16$' -benchmem -benchtime 3x)
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

bytes=$(field BenchmarkClusterSimulate/chips=16 B/op)
if [ -z "$bytes" ]; then
    echo "FAIL: could not parse B/op for BenchmarkClusterSimulate/chips=16" >&2
    exit 1
fi
echo "BenchmarkClusterSimulate/chips=16: ${bytes} B/op (ceiling: ${cluster_ceiling})"
if [ "$bytes" -gt "$cluster_ceiling" ]; then
    echo "FAIL: B/op ${bytes} exceeds the committed ceiling ${cluster_ceiling}" >&2
    exit 1
fi

bytes=$(field BenchmarkClusterSimulateSampled/chips=16 B/op)
if [ -z "$bytes" ]; then
    echo "FAIL: could not parse B/op for BenchmarkClusterSimulateSampled/chips=16" >&2
    exit 1
fi
echo "BenchmarkClusterSimulateSampled/chips=16: ${bytes} B/op (ceiling: ${sampled_ceiling})"
if [ "$bytes" -gt "$sampled_ceiling" ]; then
    echo "FAIL: B/op ${bytes} exceeds the committed ceiling ${sampled_ceiling}" >&2
    exit 1
fi
