#!/usr/bin/env bash
# The chaos wall, in two layers:
#
#   1. The in-process seeded fault-injection suite (TestChaosWall): real
#      service.Servers behind deterministic fault-injecting chaos proxies,
#      fronted by the resilient routing tier on both codecs — bit-identical
#      answers under faults, bounded errors, ejection on kill, readmission
#      after heal.
#   2. A multi-process distributed drill on this runner: four qosrmad
#      replicas (two consistent-hash groups) behind a qosrmad -route tier,
#      loadgen driving the tier over HTTP/JSON and the binary wire
#      protocol while one backend is kill -9'd and restarted mid-run. The
#      run must keep its error rate bounded and the tier must readmit the
#      restarted replica (this is the ROADMAP's multi-process distributed
#      loadtest target).
#
# Environment knobs:
#   DURATION   measured window per protocol (default 4s)
#   MIN_QPS    tier throughput floor per protocol (default 0 = disabled;
#              the chaos run measures resilience, not peak throughput)
#   OUT        combined report file (default chaos.txt)
set -euo pipefail
cd "$(dirname "$0")/.."

DURATION=${DURATION:-4s}
MIN_QPS=${MIN_QPS:-0}
OUT=${OUT:-chaos.txt}

echo "chaos: layer 1 — seeded fault-injection suite"
go test -race -count=1 -run 'TestChaosWall' ./internal/route

echo "chaos: layer 2 — multi-process kill/restart drill"
mkdir -p bin
go build -o bin/qosrmad ./cmd/qosrmad
go build -o bin/loadgen ./cmd/loadgen

TIER=127.0.0.1:7800
TIER_WIRE=127.0.0.1:7810
HTTP=(127.0.0.1:7801 127.0.0.1:7802 127.0.0.1:7803 127.0.0.1:7804)
WIRE=(127.0.0.1:7811 127.0.0.1:7812 127.0.0.1:7813 127.0.0.1:7814)
PIDS=() # the backends by index, then the tier
LG=     # the loadgen while one runs
# On any exit, stop every process started here and wait for it.
source scripts/stop.sh
trap 'stop_pids "${PIDS[@]}" "$LG"' EXIT
trap 'exit 1' INT TERM HUP

start_backend() { # index
	# Daemon output goes to a log file, not our stdout: a replica restarted
	# mid-run must never hold the caller's pipe open after the script exits.
	bin/qosrmad -addr "${HTTP[$1]}" -wire-addr "${WIRE[$1]}" -audit-interval 0 \
		>"bin/chaos.backend$1.log" 2>&1 &
	PIDS[$1]=$!
}
wait_http_ok() { # url what deadline_s
	local tries=$(( $3 * 10 ))
	for _ in $(seq "$tries"); do
		if curl -fsS -o /dev/null "$1" 2>/dev/null; then return 0; fi
		sleep 0.1
	done
	echo "chaos: $2 not healthy within $3 s" >&2
	return 1
}

for i in 0 1 2 3; do start_backend "$i"; done
for i in 0 1 2 3; do wait_http_ok "http://${HTTP[$i]}/v1/healthz" "backend $i" 90; done

# Two groups of two replicas, each declaring its wire address; fast
# probing so ejection/readmission happens within the run.
SPEC="${HTTP[0]}|${WIRE[0]},${HTTP[1]}|${WIRE[1]};${HTTP[2]}|${WIRE[2]},${HTTP[3]}|${WIRE[3]}"
bin/qosrmad -addr "$TIER" -wire-addr "$TIER_WIRE" -route "$SPEC" \
	-route-probe-interval 250ms -route-retries 3 >bin/chaos.tier.log 2>&1 &
TIER_PID=$!
PIDS+=("$TIER_PID")
wait_http_ok "http://$TIER/v1/healthz" "routing tier" 30

# check_report <file> <what>: the loadgen error rate must stay under 5%
# of completed batches even though a backend died mid-run.
check_report() {
	local batches errors
	batches=$(sed -n 's/.*batches=\([0-9]*\).*/\1/p' "$1")
	errors=$(sed -n 's/.*errors=\([0-9]*\).*/\1/p' "$1")
	if [ -z "$batches" ] || [ -z "$errors" ]; then
		echo "chaos: $2: malformed loadgen report" >&2
		return 1
	fi
	if [ "$batches" -eq 0 ]; then
		echo "chaos: $2: no batches completed" >&2
		return 1
	fi
	if [ $((errors * 20)) -gt $((batches + errors)) ]; then
		echo "chaos: $2: error rate too high ($errors errors over $batches batches)" >&2
		return 1
	fi
	if [ "$MIN_QPS" -gt 0 ]; then
		local qps
		qps=$(sed -n 's/.*qps=\([0-9]*\).*/\1/p' "$1")
		if [ "$qps" -lt "$MIN_QPS" ]; then
			echo "chaos: $2: $qps qps is below the $MIN_QPS floor" >&2
			return 1
		fi
	fi
}

# kill_restart <index> <down_s>: kill -9 one backend mid-run, restart it
# after the outage window. Runs in the parent shell (never backgrounded):
# start_backend's PIDS[] write must reach the cleanup trap, or the
# restarted replica leaks past the run.
kill_restart() {
	sleep 1
	kill -9 "${PIDS[$1]}" 2>/dev/null || true
	sleep "$2"
	start_backend "$1"
}

echo "chaos: driving HTTP/JSON through the tier, killing ${HTTP[3]} mid-run"
bin/loadgen -addr "$TIER" -duration "$DURATION" -conns 4 -batch 64 \
	-out chaos.json.txt &
LG=$!
kill_restart 3 1.5
wait "$LG" || true
LG=
check_report chaos.json.txt "json run"

# Readmission: every replica (including the restarted one, which rebuilds
# its database first) must return to available=1 on the tier's metrics.
echo "chaos: waiting for the tier to readmit the restarted replica"
deadline=$((SECONDS + 90))
until ! curl -fsS "http://$TIER/metrics" | grep 'qosrmad_route_replica_available' | grep -q ' 0$'; do
	if [ "$SECONDS" -ge "$deadline" ]; then
		echo "chaos: tier did not readmit the restarted replica" >&2
		curl -fsS "http://$TIER/metrics" | grep qosrmad_route_ >&2 || true
		exit 1
	fi
	sleep 0.25
done
if ! curl -fsS "http://$TIER/metrics" | grep -q '^qosrmad_route_probe_ejections_total [1-9]'; then
	echo "chaos: the kill was never noticed (no probe ejections)" >&2
	exit 1
fi

echo "chaos: driving the binary wire protocol through the tier, killing ${HTTP[1]} mid-run"
bin/loadgen -wire -addr "$TIER_WIRE" -duration "$DURATION" -conns 4 -batch 64 \
	-out chaos.wire.txt &
LG=$!
kill_restart 1 1.5
wait "$LG" || true
LG=
check_report chaos.wire.txt "wire run"

{
	echo "chaos wall: multi-process kill/restart drill"
	echo "--- json (killed ${HTTP[3]} mid-run) ---"
	cat chaos.json.txt
	echo "--- wire (killed ${HTTP[1]} mid-run) ---"
	cat chaos.wire.txt
} | tee "$OUT"
rm -f chaos.json.txt chaos.wire.txt
echo "chaos: wall green"
