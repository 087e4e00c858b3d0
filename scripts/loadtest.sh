#!/usr/bin/env bash
# Serving-layer smoke: start qosrmad, replay the deterministic loadgen
# trace against it, and enforce a throughput floor. CI runs this on every
# build and uploads the report (loadgen.txt) with the bench artifacts.
#
# Environment knobs:
#   ADDR       listen address        (default 127.0.0.1:7743)
#   WIRE       1 = drive the binary decide protocol instead of HTTP/JSON
#   WIRE_ADDR  binary listen address (default 127.0.0.1:7744)
#   DURATION   measured window       (default 2s)
#   CONNS      client connections    (default 4)
#   BATCH      queries per request   (default 256)
#   MIN_QPS    throughput floor      (default 100000; 0 disables)
#   OUT        report file           (default loadgen.txt)
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=${ADDR:-127.0.0.1:7743}
WIRE=${WIRE:-0}
WIRE_ADDR=${WIRE_ADDR:-127.0.0.1:7744}
DURATION=${DURATION:-2s}
CONNS=${CONNS:-4}
BATCH=${BATCH:-256}
MIN_QPS=${MIN_QPS:-100000}
OUT=${OUT:-loadgen.txt}

mkdir -p bin
go build -o bin/qosrmad ./cmd/qosrmad
go build -o bin/loadgen ./cmd/loadgen

SRV_FLAGS=(-addr "$ADDR")
GEN_FLAGS=(-addr "$ADDR")
if [ "$WIRE" = "1" ]; then
	SRV_FLAGS+=(-wire-addr "$WIRE_ADDR")
	GEN_FLAGS=(-addr "$WIRE_ADDR" -wire)
fi

# On any exit, stop the server and wait for it.
source scripts/stop.sh
SRV=
trap 'stop_pids "$SRV"' EXIT
trap 'exit 1' INT TERM HUP
bin/qosrmad "${SRV_FLAGS[@]}" &
SRV=$!

# loadgen itself waits for the server's meta (retrying for ~5s on either
# protocol), so no sleep here.
bin/loadgen "${GEN_FLAGS[@]}" -duration "$DURATION" -conns "$CONNS" \
	-batch "$BATCH" -out "$OUT"

# The measurement is only valid against the server we just started: if it
# died (e.g. the port was taken by a stale instance), fail loudly rather
# than report numbers from whatever answered.
if ! kill -0 "$SRV" 2>/dev/null; then
	echo "loadtest: qosrmad exited during the run" >&2
	exit 1
fi

qps=$(sed -n 's/.*qps=\([0-9]*\).*/\1/p' "$OUT")
if [ -z "$qps" ]; then
	echo "loadtest: no qps in report" >&2
	exit 1
fi
if [ "$MIN_QPS" -gt 0 ] && [ "$qps" -lt "$MIN_QPS" ]; then
	echo "loadtest: $qps decide-requests/sec is below the $MIN_QPS floor" >&2
	exit 1
fi
echo "loadtest: sustained $qps decide-requests/sec (floor $MIN_QPS)"
