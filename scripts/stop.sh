#!/usr/bin/env bash
# Process teardown shared by the scripts that start background processes
# (loadtest.sh, chaos.sh). Source it, then call stop_pids from an EXIT
# trap:
#
#   source scripts/stop.sh
#   trap 'stop_pids "${PIDS[@]}"' EXIT
#
# stop_pids PID... sends SIGTERM to every PID, waits up to 5 seconds for
# them to exit, sends SIGKILL to any still alive and reaps each one, so
# nothing the caller started outlives it. Empty arguments and PIDs that
# already exited are skipped.
set -euo pipefail

stop_pids() {
	local pid deadline
	for pid in "$@"; do
		if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
	done
	deadline=$((SECONDS + 5))
	for pid in "$@"; do
		if [ -z "$pid" ]; then continue; fi
		while kill -0 "$pid" 2>/dev/null && [ "$SECONDS" -lt "$deadline" ]; do
			sleep 0.1
		done
		kill -9 "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
	done
}
