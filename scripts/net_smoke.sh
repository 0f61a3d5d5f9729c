#!/usr/bin/env bash
# End-to-end smoke of the networked serving path: start search_server
# --listen on a loopback port, drive it with the open-loop load generator
# for ~2 seconds at low QPS, poll the /statsz introspection endpoint
# mid-run (it must answer within its 100 ms deadline and produce
# well-formed Prometheus exposition text), assert a non-empty latency
# summary (loadgen exits nonzero when no request completed) and a client
# lateness p50 under 300 us (the client paces on time). Used by CI
# on the Release build; sanitizer jobs skip it (timing-sensitive).
#
# Usage: scripts/net_smoke.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
LOG="$(mktemp)"
CSV="$(mktemp -u).csv"

# --listen 0 binds an ephemeral port; the kernel's choice is parsed from
# the "listening on" line, so parallel CI jobs can never collide.
"${BUILD_DIR}/examples/search_server" --listen 0 --docs 4000 \
    --queries 200 > "${LOG}" 2>&1 &
SERVER_PID=$!
trap 'kill "${SERVER_PID}" 2>/dev/null || true' EXIT

# Index build + predictor training take a while; wait until it listens.
for _ in $(seq 1 240); do
    grep -q "listening on" "${LOG}" && break
    if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
        echo "net_smoke: server exited before listening" >&2
        cat "${LOG}" >&2
        exit 1
    fi
    sleep 0.5
done
grep -q "listening on" "${LOG}" || {
    echo "net_smoke: server never started listening" >&2
    cat "${LOG}" >&2
    exit 1
}
PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "${LOG}" \
    | head -n 1)"
echo "net_smoke: server chose port ${PORT}"

# Drive load in the background so /statsz can be polled mid-run.
LOADGEN_LOG="$(mktemp)"
"${BUILD_DIR}/examples/loadgen" --port "${PORT}" --qps 50 --duration-s 2 \
    --csv-out "${CSV}" > "${LOADGEN_LOG}" &
LOADGEN_PID=$!

# Poll the introspection endpoint while the server is busy. The 100 ms
# timeout doubles as the latency assertion: a stalled event loop fails
# the fetch, and with it the smoke test.
sleep 0.5
STATSZ="$(mktemp)"
"${BUILD_DIR}/examples/statsz" --port "${PORT}" --timeout-ms 100 \
    > "${STATSZ}" || {
    echo "net_smoke: /statsz fetch failed or exceeded 100 ms" >&2
    kill "${LOADGEN_PID}" 2>/dev/null || true
    exit 1
}

# The dump must be well-formed exposition text: liveness sample, # TYPE
# headers, and every non-comment line shaped "name{labels} value".
grep -Eq '^tpc_up\{[^}]*\} 1$' "${STATSZ}" || {
    echo "net_smoke: /statsz missing tpc_up sample:" >&2
    cat "${STATSZ}" >&2
    kill "${LOADGEN_PID}" 2>/dev/null || true
    exit 1
}
grep -q '^# TYPE ' "${STATSZ}" || {
    echo "net_smoke: /statsz missing # TYPE headers" >&2
    kill "${LOADGEN_PID}" 2>/dev/null || true
    exit 1
}
BAD_LINES="$(grep -v '^#' "${STATSZ}" | grep -Evc \
    '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$' || true)"
if [ "${BAD_LINES}" -ne 0 ]; then
    echo "net_smoke: ${BAD_LINES} malformed /statsz line(s):" >&2
    grep -v '^#' "${STATSZ}" | grep -Ev \
        '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$' >&2 || true
    kill "${LOADGEN_PID}" 2>/dev/null || true
    exit 1
fi

wait "${LOADGEN_PID}"
cat "${LOADGEN_LOG}"

# The client must send on schedule: its lateness is part of every
# latency it reports. A timeout rounded up to whole ms would put the
# median near 500 us.
LATE_P50="$(sed -n 's/^client lateness (us, send - scheduled): p50 \([0-9.]*\) .*/\1/p' \
    "${LOADGEN_LOG}")"
[ -n "${LATE_P50}" ] || {
    echo "net_smoke: loadgen printed no client lateness line" >&2
    exit 1
}
if ! awk -v late="${LATE_P50}" 'BEGIN { exit !(late < 300) }'; then
    echo "net_smoke: client lateness p50 ${LATE_P50} us >= 300 us" >&2
    exit 1
fi

# Graceful drain via SIGINT; the server must exit cleanly.
kill -INT "${SERVER_PID}"
wait "${SERVER_PID}"
trap - EXIT

# The CSV must exist and hold a header plus exactly one summary row.
[ "$(wc -l < "${CSV}")" -eq 2 ] || {
    echo "net_smoke: unexpected loadgen CSV:" >&2
    cat "${CSV}" >&2
    exit 1
}
echo "net_smoke: OK"
