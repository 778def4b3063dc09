#!/usr/bin/env bash
# chaos_live.sh — the live chaos acceptance run, in two legs that share one
# fault-plan JSON (drops plus one full partition window):
#
#   1. `chaos -live`: an in-process live table (goroutines, wall-clock
#      timers) over the fault-injecting ChaosBus, with one crash/restart,
#      judged by the shared checkers. Exit 130 propagates if interrupted.
#
#   2. The networked service: dineserve with a scheduled diner crash/restart,
#      fronted by the chaosproxy applying the same plan (plus connection
#      resets) to the client/server TCP path, hammered by self-healing
#      dineload clients. Asserts a clean load run, a drain that finishes
#      every session, and a clean ◇WX verdict from the server's own checker
#      on SIGINT.
#
# The fault schedule is a function of SEED alone; same seed, same schedule.
# Used by `make chaos-live` and CI. SEED/CLIENTS/DURATION are overridable.
set -u

SEED="${SEED:-7}"
CLIENTS="${CLIENTS:-32}"
DURATION="${DURATION:-6s}"
BIN="${BIN:-bin}"
LOG="$(mktemp -d)"
trap 'rm -rf "$LOG"' EXIT

# One plan, both runtimes: 3% steady drops everywhere, and a full partition
# window over plan ticks [2000, 2500). Leg 1 runs 500µs ticks (window =
# 1.0s..1.25s of a 6s run); the proxy runs 1ms ticks (window = 2.0s..2.5s).
cat > "$LOG/plan.json" <<'EOF'
{"drop": 0.03, "windows": [{"start": 2000, "end": 2500, "drop": 1}]}
EOF

echo "chaos-live: leg 1 — in-process live campaign (seed $SEED)"
"$BIN/chaos" -live -seeds "$SEED" -sizes 5 -topologies ring \
    -live-duration "$DURATION" -liveplan "$LOG/plan.json"
LIVE_EXIT=$?
if [ "$LIVE_EXIT" -ne 0 ]; then
    echo "chaos-live: FAIL — live campaign exited $LIVE_EXIT" >&2
    exit "$LIVE_EXIT"
fi

echo "chaos-live: leg 2 — dineserve behind the chaos proxy"
"$BIN/dineserve" -addr 127.0.0.1:0 -lease 5s \
    -chaos-crash 2 -chaos-crash-at 2s -chaos-restart-after 500ms \
    >"$LOG/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null; rm -rf "$LOG"' EXIT

ADDR=""
for _ in $(seq 100); do
    ADDR=$(grep -o '127\.0\.0\.1:[0-9]*' "$LOG/serve.log" 2>/dev/null | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "chaos-live: dineserve never started listening" >&2
    cat "$LOG/serve.log" >&2
    exit 1
fi

"$BIN/chaosproxy" -listen 127.0.0.1:0 -upstream "$ADDR" \
    -plan "$LOG/plan.json" -seed "$SEED" -reset 0.002 \
    >"$LOG/proxy.log" 2>&1 &
PROXY_PID=$!
trap 'kill "$PROXY_PID" "$SERVE_PID" 2>/dev/null; rm -rf "$LOG"' EXIT

PADDR=""
for _ in $(seq 100); do
    PADDR=$(grep -o '127\.0\.0\.1:[0-9]*' "$LOG/proxy.log" 2>/dev/null | head -1)
    [ -n "$PADDR" ] && break
    sleep 0.1
done
if [ -z "$PADDR" ]; then
    echo "chaos-live: chaosproxy never started listening" >&2
    cat "$LOG/proxy.log" >&2
    exit 1
fi
echo "chaos-live: proxy $PADDR -> server $ADDR, $CLIENTS clients for $DURATION"

# A dropped line over healthy TCP looks like a slow server; the short op
# timeout is what converts silent frame loss into reconnect-and-replay. It
# also bounds how long a dropped grant can stall the table: the granting
# diner holds its forks until the client releases, so every lost grant or
# release line freezes that diner (and its neighbours) for one op timeout.
"$BIN/dineload" -addr "$PADDR" -clients "$CLIENTS" -duration "$DURATION" \
    -watch=false -op-timeout 500ms
LOAD_EXIT=$?

kill -INT "$SERVE_PID"
wait "$SERVE_PID"
SERVE_EXIT=$?
kill -INT "$PROXY_PID" 2>/dev/null
wait "$PROXY_PID" 2>/dev/null
cat "$LOG/proxy.log"
cat "$LOG/serve.log"

if [ "$LOAD_EXIT" -ne 0 ]; then
    echo "chaos-live: FAIL — dineload exited $LOAD_EXIT" >&2
    exit 1
fi
if [ "$SERVE_EXIT" -ne 0 ]; then
    echo "chaos-live: FAIL — dineserve exited $SERVE_EXIT (exclusion check or drain failed)" >&2
    exit 1
fi
if ! grep -q "exclusion check OK" "$LOG/serve.log"; then
    echo "chaos-live: FAIL — no exclusion verdict in the server log" >&2
    exit 1
fi
# A drain that times out means a session was still holding (or queued for)
# a critical section when its client was long gone — the lease clock failed
# to reclaim it. The verdict alone would let that through.
if grep -q "drain timeout" "$LOG/serve.log"; then
    echo "chaos-live: FAIL — the drain timed out with sessions in flight" >&2
    exit 1
fi
if ! grep -q "diner 2 restarted" "$LOG/serve.log"; then
    echo "chaos-live: FAIL — the scheduled crash/restart never happened" >&2
    exit 1
fi
echo "chaos-live: OK"
