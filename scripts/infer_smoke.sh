#!/usr/bin/env bash
# infer-smoke: boot the real ehserved daemon, upload the checked-in
# golden artifact, POST one online inference, and assert a well-formed
# prediction decodes. This is the CI gate proving the serving path works
# end to end in the shipped binary, not just under httptest.
set -euo pipefail

TMP="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/ehserved" ./cmd/ehserved
# Port 0: the kernel picks a free port, and the daemon prints the
# address it bound before it serves.
"$TMP/ehserved" -addr 127.0.0.1:0 >"$TMP/server.log" 2>&1 &
SERVER_PID=$!

BASE=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^ehserved: listening on \([^ ]*\) .*/\1/p' "$TMP/server.log")"
    if [ -n "$addr" ]; then BASE="http://$addr"; break; fi
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$BASE" ]; then
    echo "infer-smoke: server never reported its address" >&2
    cat "$TMP/server.log" >&2
    exit 1
fi

ok=0
for _ in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.1
done
if [ "$ok" != 1 ]; then
    echo "infer-smoke: server never became healthy" >&2
    cat "$TMP/server.log" >&2
    exit 1
fi

# Upload the golden two-exit artifact (1x16x16 input, 4 classes).
curl -sf --data-binary @testdata/golden_two_exit.ehar "$BASE/v1/artifacts" >"$TMP/upload.json"
grep -q '"id":"a1"' "$TMP/upload.json" || { echo "infer-smoke: unexpected upload response:"; cat "$TMP/upload.json"; exit 1; }

# One inference: a constant mid-gray 256-value input.
awk 'BEGIN {
    s = "";
    for (i = 0; i < 256; i++) s = s (i ? "," : "") "0.5";
    print "{\"artifact\":\"a1\",\"input\":[" s "]}";
}' >"$TMP/request.json"
curl -sf -X POST --data-binary @"$TMP/request.json" "$BASE/v1/infer" >"$TMP/response.json"

# The decoded prediction must carry a class in [0,4), the exit taken,
# and the int8 backend the golden artifact pins as its default.
grep -Eq '"class":[0-3][,}]' "$TMP/response.json" || { echo "infer-smoke: no decodable class:"; cat "$TMP/response.json"; exit 1; }
grep -Eq '"exit":[01][,}]' "$TMP/response.json" || { echo "infer-smoke: no exit taken:"; cat "$TMP/response.json"; exit 1; }
grep -q '"backend":"int8"' "$TMP/response.json" || { echo "infer-smoke: wrong backend:"; cat "$TMP/response.json"; exit 1; }

# And the stats endpoint must account for it.
curl -sf "$BASE/v1/stats" >"$TMP/stats.json"
grep -q '"served":1' "$TMP/stats.json" || { echo "infer-smoke: stats did not count the request:"; cat "$TMP/stats.json"; exit 1; }

# Same input on the packed-weight fast backend: the per-request backend
# selector must route to its own (model, backend) target and the
# response must echo the canonical name and a decodable class.
awk 'BEGIN {
    s = "";
    for (i = 0; i < 256; i++) s = s (i ? "," : "") "0.5";
    print "{\"artifact\":\"a1\",\"backend\":\"int8fast\",\"input\":[" s "]}";
}' >"$TMP/request_fast.json"
curl -sf -X POST --data-binary @"$TMP/request_fast.json" "$BASE/v1/infer" >"$TMP/response_fast.json"
grep -q '"backend":"int8fast"' "$TMP/response_fast.json" || { echo "infer-smoke: int8fast backend not echoed:"; cat "$TMP/response_fast.json"; exit 1; }
grep -q '"model":"artifact:a1@int8fast"' "$TMP/response_fast.json" || { echo "infer-smoke: int8fast target key wrong:"; cat "$TMP/response_fast.json"; exit 1; }
grep -Eq '"class":[0-3][,}]' "$TMP/response_fast.json" || { echo "infer-smoke: int8fast gave no decodable class:"; cat "$TMP/response_fast.json"; exit 1; }

# Liveness and readiness probes answer on the live daemon.
curl -sf "$BASE/healthz" | grep -q '"status":"ok"' || { echo "infer-smoke: healthz not ok" >&2; exit 1; }
curl -sf "$BASE/readyz" | grep -q '"status":"ready"' || { echo "infer-smoke: readyz not ready" >&2; exit 1; }

# The Prometheus exposition carries every documented metric family, and
# the infer counter reflects the request we just served.
curl -sf "$BASE/metrics" >"$TMP/metrics.txt"
for fam in \
    ehserved_requests_total \
    ehserved_request_duration_seconds \
    ehserved_requests_in_flight \
    ehserved_panics_recovered_total \
    ehserved_infer_served_total \
    ehserved_infer_rejected_total \
    ehserved_infer_batches_total \
    ehserved_infer_batch_size_requests \
    ehserved_infer_latency_seconds \
    ehserved_infer_queue_depth \
    ehserved_exit_taken_total \
    ehserved_exit_latency_seconds \
    ehserved_grid_jobs \
    ehserved_artifacts \
    ehserved_start_time_seconds \
    ehserved_ready
do
    grep -q "# TYPE $fam " "$TMP/metrics.txt" || { echo "infer-smoke: /metrics missing family $fam" >&2; exit 1; }
done
grep -q 'ehserved_infer_served_total{model="artifact:a1"} 1' "$TMP/metrics.txt" \
    || { echo "infer-smoke: /metrics did not count the inference:" >&2; grep ehserved_infer "$TMP/metrics.txt" >&2; exit 1; }
grep -q 'ehserved_ready 1' "$TMP/metrics.txt" || { echo "infer-smoke: ready gauge not 1" >&2; exit 1; }

echo "infer-smoke: OK ($(cat "$TMP/response.json"))"
