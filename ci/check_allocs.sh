#!/usr/bin/env bash
# Allocation ceilings.
#
# BenchmarkSimulate allocs/op must stay at or below the ceiling in
# ci/allocs_ceiling.txt. The calendar-queue/pooled-event engine brought
# the run from ~253k allocs/op to ~2.4k (BENCH_0006.json), and recycled
# split messages, pooled split snapshots that the adopter takes over and
# an in-place deferred-spawn pop took it from ~2,091 to ~860; this guard
# catches any change that quietly reintroduces per-event, per-task or
# per-split allocation.
#
# BenchmarkSimulate B/op must stay at or below the ceiling in
# ci/simulate_bytes_ceiling.txt. The run samples nothing but carries the
# telemetry bundle: five histograms whose power-of-two ranges are
# allocated on first touch, folded once at run end, and the Result's
# digest summaries. Building them on every run took it from ~425.8 KB/op
# to ~431.4 KB/op, and leaf parents that count their last candidate set
# instead of storing it in a pooled buffer to ~411.6 KB/op; this guard
# keeps the unsampled run's telemetry at the size of its touched ranges
# and leaf parents from storing sets again.
#
# BenchmarkSimulateSamplerOn B/op must stay at or below the ceiling in
# ci/sampler_bytes_ceiling.txt. One latency histogram per name per chip
# (not per PE) and sampler columns that grow with the run took it from
# ~1,101 KB/op to ~951 KB/op (at this script's -benchtime 3x), and one
# 32-bit word per cache way (not 17 bytes a line) to ~711 KB/op, and
# histograms that allocate a power-of-two range's buckets on first touch
# (not a dense 15 KB array each) to ~633 KB/op, and allocation-free
# splits and deferred spawns to ~608 KB/op, and counted leaf parents to
# ~589 KB/op; this guard keeps telemetry and cache storage from creeping
# back.
#
# BenchmarkClusterSimulate/chips=16 B/op must stay at or below the
# ceiling in ci/cluster_bytes_ceiling.txt. Sixteen chips build 16 L2s
# and 32 L1s for a short run, so cache state is most of what the run
# allocates: one 32-bit word per way took it from ~5,689 KB/op to
# ~2,052 KB/op, and one candidate-buffer pool for the machine with
# allocation-free splits, migrations and deferred spawns to ~1,916 KB/op,
# and counted leaf parents to ~1,830 KB/op; this guard keeps per-chip
# state from growing back.
#
# BenchmarkClusterSimulateSampled/chips=16 B/op must stay at or below
# the ceiling in ci/cluster_sampled_bytes_ceiling.txt. It is the same
# 16-chip machine sampling every 512 cycles. When every chip kept its
# own sampler and five 15 KB histograms, it allocated ~3,525 KB/op. One
# telemetry bundle for the machine (one sampler, one tick, five
# histograms) took it to ~2,236 KB/op, and the allocation-free split,
# migration and deferred-spawn paths to ~2,038 KB/op, and counted leaf
# parents to ~1,946 KB/op; this guard keeps telemetry from going back to
# one copy per chip.
#
# BenchmarkCountLJTriangleServe (one served lj x tc count) allocs/op
# and B/op must stay at or below ci/count_serve_allocs_ceiling.txt and
# ci/count_serve_bytes_ceiling.txt. The miner allocates its buffers once
# per worker: before the counting leaf probed a per-parent bitset a
# count read 21 allocs/op and ~31.7 KB/op. The leaf's scratch bitset
# (one bit per vertex, 4 KB on lj) adds one allocation per miner, never
# one per leaf-parent batch: 22 allocs/op and ~35.8 KB/op. Candidate
# and scratch buffers that grow on first use (not five MaxDegree-sized
# lists per miner, which tc's local-graph pass never touches) took it
# to 17 allocs/op and ~5.2 KB/op. This guard catches a per-batch or
# per-sibling allocation on the golden miner's hot path.
#
# BenchmarkReadEdgeListUpload (parse and build one served upload's text:
# R-MAT, 2048 vertices, 12,000 edges) allocs/op and B/op must stay at or
# below ci/read_upload_allocs_ceiling.txt and
# ci/read_upload_bytes_ceiling.txt. A reader that made a string and a
# fields slice per line and a builder that sorted each row with
# sort.Slice read 22,551 allocs/op and ~1,047 KB/op; the byte-level
# reader and the counting-sort build read 26 allocs/op and ~622 KB/op.
# This guard catches a per-line or per-row allocation coming back on the
# upload path.
#
# Tighten a ceiling when the number drops (never raise it for
# convenience — a real regression should be fixed, not accommodated).
#
# Usage: ci/check_allocs.sh
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
ceiling=$(tr -d '[:space:]' < "$root/ci/allocs_ceiling.txt")
bytes_ceiling=$(tr -d '[:space:]' < "$root/ci/sampler_bytes_ceiling.txt")
sim_bytes_ceiling=$(tr -d '[:space:]' < "$root/ci/simulate_bytes_ceiling.txt")
cluster_ceiling=$(tr -d '[:space:]' < "$root/ci/cluster_bytes_ceiling.txt")
sampled_ceiling=$(tr -d '[:space:]' < "$root/ci/cluster_sampled_bytes_ceiling.txt")
count_allocs_ceiling=$(tr -d '[:space:]' < "$root/ci/count_serve_allocs_ceiling.txt")
count_bytes_ceiling=$(tr -d '[:space:]' < "$root/ci/count_serve_bytes_ceiling.txt")
read_allocs_ceiling=$(tr -d '[:space:]' < "$root/ci/read_upload_allocs_ceiling.txt")
read_bytes_ceiling=$(tr -d '[:space:]' < "$root/ci/read_upload_bytes_ceiling.txt")

out=$(cd "$root" && go test ./internal/accel/ -run '^$' \
    -bench 'BenchmarkSimulate$|BenchmarkSimulateSamplerOn$' -benchmem -benchtime 3x)
out+=$'\n'$(cd "$root" && go test ./internal/cluster/ -run '^$' \
    -bench '^BenchmarkClusterSimulate(Sampled)?$/^chips=16$' -benchmem -benchtime 3x)
out+=$'\n'$(cd "$root" && go test ./internal/mine/ -run '^$' \
    -bench '^BenchmarkCountLJTriangleServe$' -benchmem -benchtime 3x)
out+=$'\n'$(cd "$root" && go test ./internal/graph/ -run '^$' \
    -bench '^BenchmarkReadEdgeListUpload$' -benchmem -benchtime 3x)
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

bytes=$(field BenchmarkSimulate B/op)
if [ -z "$bytes" ]; then
    echo "FAIL: could not parse B/op for BenchmarkSimulate" >&2
    exit 1
fi
echo "BenchmarkSimulate: ${bytes} B/op (ceiling: ${sim_bytes_ceiling})"
if [ "$bytes" -gt "$sim_bytes_ceiling" ]; then
    echo "FAIL: B/op ${bytes} exceeds the committed ceiling ${sim_bytes_ceiling}" >&2
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

allocs=$(field BenchmarkCountLJTriangleServe allocs/op)
bytes=$(field BenchmarkCountLJTriangleServe B/op)
if [ -z "$allocs" ] || [ -z "$bytes" ]; then
    echo "FAIL: could not parse allocs/op and B/op for BenchmarkCountLJTriangleServe" >&2
    exit 1
fi
echo "BenchmarkCountLJTriangleServe: ${allocs} allocs/op (ceiling: ${count_allocs_ceiling}), ${bytes} B/op (ceiling: ${count_bytes_ceiling})"
if [ "$allocs" -gt "$count_allocs_ceiling" ] || [ "$bytes" -gt "$count_bytes_ceiling" ]; then
    echo "FAIL: BenchmarkCountLJTriangleServe exceeds a committed ceiling" >&2
    exit 1
fi

allocs=$(field BenchmarkReadEdgeListUpload allocs/op)
bytes=$(field BenchmarkReadEdgeListUpload B/op)
if [ -z "$allocs" ] || [ -z "$bytes" ]; then
    echo "FAIL: could not parse allocs/op and B/op for BenchmarkReadEdgeListUpload" >&2
    exit 1
fi
echo "BenchmarkReadEdgeListUpload: ${allocs} allocs/op (ceiling: ${read_allocs_ceiling}), ${bytes} B/op (ceiling: ${read_bytes_ceiling})"
if [ "$allocs" -gt "$read_allocs_ceiling" ] || [ "$bytes" -gt "$read_bytes_ceiling" ]; then
    echo "FAIL: BenchmarkReadEdgeListUpload exceeds a committed ceiling" >&2
    exit 1
fi
