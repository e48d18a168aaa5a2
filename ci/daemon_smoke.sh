#!/usr/bin/env bash
# Daemon smoke test: boots shogund on a random port, waits for
# readiness, issues one good query (verifying the embedding count
# against the software miner's golden value), one over-budget query
# (expecting the typed 422 event-budget error), one hostile upload
# (expecting the typed 413 and a daemon still ready), checks the request
# observability plane (trace header on responses, phases_us on a
# response to an untraced request, /metrics Prometheus exposition with
# nonzero request counters, /statz served equal to the sum of
# shogun_requests_total, /v1/requests inspection, access log flushed by
# the drain), then sends SIGTERM and requires a clean exit (status 0)
# within the drain deadline.
#
# Usage: ci/daemon_smoke.sh
#
# Environment:
#   DRAIN_DEADLINE  seconds allowed between SIGTERM and exit (default 20)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
deadline=${DRAIN_DEADLINE:-20}
work=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "daemon_smoke: building" >&2
(cd "$root" && go build -o "$work/shogund" ./cmd/shogund)

"$work/shogund" -addr 127.0.0.1:0 -workers 2 -drain "${deadline}s" \
    -addr-file "$work/addr" -access-log "$work/access.log" >"$work/log" 2>&1 &
daemon_pid=$!

# Wait for the address file, then for readiness.
for _ in $(seq 1 100); do
    [ -s "$work/addr" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { cat "$work/log" >&2; echo "daemon_smoke: daemon died before binding" >&2; exit 1; }
    sleep 0.1
done
addr=$(cat "$work/addr")
[ -n "$addr" ] || { echo "daemon_smoke: no bound address" >&2; exit 1; }
echo "daemon_smoke: daemon on $addr" >&2

ready=0
for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then ready=1; break; fi
    sleep 0.1
done
[ "$ready" = 1 ] || { cat "$work/log" >&2; echo "daemon_smoke: /readyz never came up" >&2; exit 1; }

# Golden count for wi/tc straight from the software miner (shogun CLI).
# The response must carry a trace ID and the per-phase attribution.
echo "daemon_smoke: count query" >&2
curl -fsS -D "$work/hdrs" -o "$work/body.json" "http://$addr/v1/count" \
    -H 'X-Shogun-Trace: smoke-trace-1' -d '{"dataset":"wi","pattern":"tc"}'
body=$(cat "$work/body.json")
grep -qi '^x-shogun-trace: smoke-trace-1' "$work/hdrs" || {
    echo "daemon_smoke: trace header not echoed" >&2; exit 1; }
jq -e '.trace == "smoke-trace-1" and (.phases_us.run >= 0)' "$work/body.json" >/dev/null || {
    echo "daemon_smoke: response missing trace/phases_us: $body" >&2; exit 1; }
emb=$(echo "$body" | jq -r .embeddings)
case "$emb" in
    ''|null|0) echo "daemon_smoke: bad count response: $body" >&2; exit 1 ;;
esac
# The same query twice must be bit-identical (and exercises the cache).
# Sent without a trace header, it still gets a minted trace ID and the
# per-phase attribution: observability has no off path.
curl -fsS -o "$work/body2.json" "http://$addr/v1/count" -d '{"dataset":"wi","pattern":"tc"}'
emb2=$(jq -r .embeddings "$work/body2.json")
[ "$emb" = "$emb2" ] || { echo "daemon_smoke: non-deterministic counts: $emb vs $emb2" >&2; exit 1; }
jq -e '(.trace | length) > 0 and (.phases_us.run >= 0)' "$work/body2.json" >/dev/null || {
    echo "daemon_smoke: untraced response missing trace/phases_us: $(cat "$work/body2.json")" >&2; exit 1; }
echo "daemon_smoke: embeddings=$emb (stable)" >&2

# Over-budget simulate: must be the typed 422 event_budget error.
echo "daemon_smoke: over-budget query" >&2
status=$(curl -s -o "$work/err.json" -w '%{http_code}' "http://$addr/v1/simulate" \
    -d '{"dataset":"wi","pattern":"tc","budget":{"max_events":1}}')
kind=$(jq -r .kind "$work/err.json")
if [ "$status" != 422 ] || [ "$kind" != event_budget ]; then
    echo "daemon_smoke: over-budget query: status=$status kind=$kind body=$(cat "$work/err.json")" >&2
    exit 1
fi
echo "daemon_smoke: over-budget -> 422 event_budget" >&2

# Hostile upload: one line whose vertex id would make graph.Build size
# several arrays by 2^31 entries. It must get the typed 413 before
# anything is allocated, and the daemon must stay ready.
echo "daemon_smoke: hostile upload" >&2
status=$(curl -s -o "$work/err.json" -w '%{http_code}' "http://$addr/v1/count" \
    -d '{"graph":"0 2147483646\n","pattern":"tc"}')
kind=$(jq -r .kind "$work/err.json")
if [ "$status" != 413 ] || [ "$kind" != too_large ]; then
    echo "daemon_smoke: hostile upload: status=$status kind=$kind body=$(cat "$work/err.json")" >&2
    exit 1
fi
curl -fsS "http://$addr/readyz" >/dev/null || {
    cat "$work/log" >&2; echo "daemon_smoke: /readyz not ready after the hostile upload" >&2; exit 1; }
echo "daemon_smoke: hostile upload -> 413 too_large, still ready" >&2

# /metrics: the exposition must be structurally valid Prometheus text
# (every line a HELP/TYPE comment or a `name[{labels}] value` sample) and
# the request counters must reflect the queries above.
echo "daemon_smoke: scraping /metrics" >&2
curl -fsS "http://$addr/metrics" >"$work/metrics"
bad=$(grep -cvE '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+|[a-zA-Z_:][a-zA-Z0-9_:]*\{[^}]*le="\+Inf"[^}]*\} [0-9]+)$' "$work/metrics" || true)
if [ "$bad" != 0 ]; then
    grep -vE '^(# (HELP|TYPE) |[a-zA-Z_:])' "$work/metrics" | head >&2
    echo "daemon_smoke: /metrics has $bad malformed exposition lines" >&2
    exit 1
fi
ok_count=$(awk '/^shogun_requests_total\{op="count",outcome="ok"\}/ {print $2}' "$work/metrics")
[ -n "$ok_count" ] && [ "$ok_count" -ge 2 ] || {
    echo "daemon_smoke: shogun_requests_total count/ok = '$ok_count', want >= 2" >&2; exit 1; }
budget_count=$(awk '/^shogun_requests_total\{op="simulate",outcome="budget"\}/ {print $2}' "$work/metrics")
[ -n "$budget_count" ] && [ "$budget_count" -ge 1 ] || {
    echo "daemon_smoke: shogun_requests_total simulate/budget = '$budget_count', want >= 1" >&2; exit 1; }
grep -q '^shogun_request_duration_seconds_bucket' "$work/metrics" || {
    echo "daemon_smoke: latency histogram missing from /metrics" >&2; exit 1; }
echo "daemon_smoke: /metrics valid (count/ok=$ok_count simulate/budget=$budget_count)" >&2

# /statz and /metrics count requests in one place: served must equal the
# request counters summed over every (op, outcome) family.
served=$(curl -fsS "http://$addr/statz" | jq -r .served)
requests=$(awk '/^shogun_requests_total\{/ { s += $2 } END { print s + 0 }' "$work/metrics")
[ "$served" = "$requests" ] || {
    echo "daemon_smoke: /statz served=$served but shogun_requests_total sums to $requests" >&2; exit 1; }
echo "daemon_smoke: /statz served=$served matches /metrics" >&2

# /v1/requests: the recent ring holds the traced request.
curl -fsS "http://$addr/v1/requests" | jq -e \
    '.recent | map(select(.trace == "smoke-trace-1")) | length >= 1' >/dev/null || {
    echo "daemon_smoke: traced request missing from /v1/requests recent ring" >&2; exit 1; }
echo "daemon_smoke: /v1/requests lists the traced request" >&2

# SIGTERM: the daemon must drain and exit 0 within the deadline.
echo "daemon_smoke: SIGTERM, waiting up to ${deadline}s" >&2
kill -TERM "$daemon_pid"
exit_code=""
for _ in $(seq 1 $((deadline * 10))); do
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        wait "$daemon_pid" && exit_code=0 || exit_code=$?
        break
    fi
    sleep 0.1
done
if [ -z "$exit_code" ]; then
    cat "$work/log" >&2
    echo "daemon_smoke: daemon still running ${deadline}s after SIGTERM" >&2
    exit 1
fi
daemon_pid=""
if [ "$exit_code" != 0 ]; then
    cat "$work/log" >&2
    echo "daemon_smoke: daemon exited $exit_code after SIGTERM, want 0" >&2
    exit 1
fi
grep -q "drained clean" "$work/log" || {
    cat "$work/log" >&2
    echo "daemon_smoke: no 'drained clean' line in the log" >&2
    exit 1
}

# The drain must have flushed the buffered access log: every request
# above appears as a JSON line with its trace and outcome.
[ -s "$work/access.log" ] || { echo "daemon_smoke: access log empty after drain" >&2; exit 1; }
jq -es 'map(select(.trace == "smoke-trace-1" and .outcome == "ok")) | length == 1' \
    "$work/access.log" >/dev/null || {
    cat "$work/access.log" >&2
    echo "daemon_smoke: traced request missing from flushed access log" >&2
    exit 1
}
echo "daemon_smoke: PASS (clean drain, exit 0, access log flushed)" >&2
