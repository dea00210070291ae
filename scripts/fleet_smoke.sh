#!/usr/bin/env bash
# fleet-smoke: the crash-recovery gate for fleet jobs on the shipped
# ehserved binary.
#
# Phase 1 (reference): run a fleet to completion on a fresh data dir and
# keep the final result document.
# Phase 2 (crash): start the same fleet on a second data dir, SIGKILL
# the daemon mid-job — no drain, no journal retirement — restart it on
# the same dir, and wait for the resumed fleet to finish.
# The recovered final document must be byte-identical to the reference:
# the engine fast-forwards deterministically through the journaled
# epochs and re-simulates only the remainder.
set -euo pipefail

TMP="$(mktemp -d)"
SERVER_PID=""
BASE=""
STARTS=0
cleanup() {
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/ehserved" ./cmd/ehserved

# Each start binds port 0: the kernel picks a free port, and the daemon
# prints the address it bound before it serves. A restart gets a new
# port, so BASE changes with it.
start_server() { # $1 = data dir
    STARTS=$((STARTS + 1))
    local log="$TMP/server-$STARTS.log"
    "$TMP/ehserved" -addr 127.0.0.1:0 -workers 1 -data-dir "$1" >"$log" 2>&1 &
    SERVER_PID=$!
    BASE=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^ehserved: listening on \([^ ]*\) .*/\1/p' "$log")"
        if [ -n "$addr" ]; then BASE="http://$addr"; break; fi
        kill -0 "$SERVER_PID" 2>/dev/null || break
        sleep 0.1
    done
    if [ -n "$BASE" ]; then
        for _ in $(seq 1 100); do
            if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
            sleep 0.1
        done
    fi
    echo "fleet-smoke: server never became healthy" >&2
    cat "$log" >&2
    exit 1
}

stop_server() {
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
}

# A fleet slow enough to be caught mid-run on a 1-worker session but
# quick enough for CI: every epoch checkpoints a snapshot, so the kill
# can land between any two of the 60 barriers.
SPEC='{"name":"fleet-smoke","baseSeed":5,"epochs":60,"snapshotEvery":1,"events":120,"populations":[{"name":"pop","count":512,"traceVariants":8}]}'

wait_done() { # $1 = fleet id; prints nothing, fails if the job errs
    for _ in $(seq 1 600); do
        state="$(curl -sf "$BASE/v1/fleets/$1" | grep -o '"state":"[a-z]*"')"
        case "$state" in
            '"state":"done"') return 0 ;;
            '"state":"failed"'|'"state":"canceled"')
                echo "fleet-smoke: fleet $1 ended $state" >&2
                curl -sf "$BASE/v1/fleets/$1" >&2 || true
                exit 1 ;;
        esac
        sleep 0.2
    done
    echo "fleet-smoke: fleet $1 never finished" >&2
    exit 1
}

# ---- Phase 1: uninterrupted reference run -------------------------------
start_server "$TMP/data-ref"
REF_ID="$(curl -sf -X POST -d "$SPEC" "$BASE/v1/fleets" | grep -o '"id":"f[0-9]*"' | cut -d'"' -f4)"
wait_done "$REF_ID"
curl -sf "$BASE/v1/fleets/$REF_ID/results" >"$TMP/reference.json"
stop_server

# ---- Phase 2: SIGKILL mid-fleet, restart, resume ------------------------
# The kill must land while the fleet is running. If it outruns us (fast
# machine), retry the whole phase on a fresh dir a few times.
killed=0
for attempt in 1 2 3; do
    DATA="$TMP/data-crash-$attempt"
    start_server "$DATA"
    JOB_ID="$(curl -sf -X POST -d "$SPEC" "$BASE/v1/fleets" | grep -o '"id":"f[0-9]*"' | cut -d'"' -f4)"

    # Wait for at least one checkpointed snapshot, then SIGKILL — no
    # drain, no deferred cleanup, exactly the crash the journal exists
    # for.
    for _ in $(seq 1 300); do
        status="$(curl -sf "$BASE/v1/fleets/$JOB_ID")"
        completed="$(echo "$status" | grep -o '"completed":[0-9]*' | cut -d: -f2)"
        if echo "$status" | grep -q '"state":"running"' && [ "${completed:-0}" -ge 1 ]; then
            kill -9 "$SERVER_PID"
            wait "$SERVER_PID" 2>/dev/null || true
            SERVER_PID=""
            killed=1
            break
        fi
        if echo "$status" | grep -q '"state":"done"'; then break; fi
        sleep 0.05
    done
    if [ "$killed" = 1 ]; then break; fi
    echo "fleet-smoke: attempt $attempt finished before the kill landed; retrying" >&2
    stop_server
done
if [ "$killed" != 1 ]; then
    echo "fleet-smoke: could never SIGKILL mid-fleet (fleet too fast?)" >&2
    exit 1
fi

# Restart on the same data dir: the fleet must resume and finish.
start_server "$DATA"
wait_done "$JOB_ID"

# The resumed run's final document is byte-identical to the reference.
curl -sf "$BASE/v1/fleets/$JOB_ID/results" >"$TMP/resumed.json"
if ! cmp -s "$TMP/reference.json" "$TMP/resumed.json"; then
    echo "fleet-smoke: resumed results differ from the uninterrupted reference" >&2
    diff <(head -c 2000 "$TMP/reference.json") <(head -c 2000 "$TMP/resumed.json") >&2 || true
    exit 1
fi

# The unified job listing knows the fleet, and recovery telemetry plus
# the per-fleet families are on /metrics.
curl -sf "$BASE/v1/jobs" | grep -q "\"id\":\"$JOB_ID\"" \
    || { echo "fleet-smoke: /v1/jobs does not list $JOB_ID" >&2; exit 1; }
curl -sf "$BASE/metrics" >"$TMP/metrics.txt"
grep -q 'ehserved_fleets_resumed_total 1' "$TMP/metrics.txt" \
    || { echo "fleet-smoke: resume not counted" >&2; grep ehserved_fleet "$TMP/metrics.txt" >&2 || true; exit 1; }
grep -Eq 'ehserved_fleet_snapshots_restored_total [1-9]' "$TMP/metrics.txt" \
    || { echo "fleet-smoke: restored snapshots not counted" >&2; grep ehserved_fleet "$TMP/metrics.txt" >&2 || true; exit 1; }
grep -Eq "ehserved_fleet_events_total\{fleet=\"$JOB_ID\"\} [1-9]" "$TMP/metrics.txt" \
    || { echo "fleet-smoke: per-fleet event counter missing" >&2; grep ehserved_fleet "$TMP/metrics.txt" >&2 || true; exit 1; }
stop_server

echo "fleet-smoke: OK (fleet $JOB_ID resumed after SIGKILL; results byte-identical)"
