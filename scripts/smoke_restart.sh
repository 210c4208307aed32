#!/usr/bin/env bash
# Crash-recovery smoke of the rtossimd job journal, mirroring
# TestE2EJournalRecovery for CI: kill -9 the daemon mid-sweep, corrupt the
# journal tail the way a torn append would, restart on the same journal, and
# require the unfinished job to re-run to completion with a report
# byte-identical to an uninterrupted run. A third (graceful) restart must
# then restore everything from the journal without re-running, serving the
# same report and per-variant results bytes.
#
# Set SMOKE_LOG_DIR to keep the per-life daemon logs (CI uploads them on
# failure).
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
JOURNAL="$WORK/journal"
DAEMON=""
cleanup() {
  status=$?
  if [ -n "$DAEMON" ]; then
    kill "$DAEMON" 2>/dev/null || true
    wait "$DAEMON" 2>/dev/null || true
  fi
  if [ -n "${SMOKE_LOG_DIR:-}" ]; then
    mkdir -p "$SMOKE_LOG_DIR"
    cp "$WORK"/life*.log "$SMOKE_LOG_DIR/" 2>/dev/null || true
  fi
  rm -rf "$WORK"
  exit "$status"
}
trap cleanup EXIT

go build -o "$WORK/rtossimd" ./cmd/rtossimd

# start_daemon LOGFILE — launch on an ephemeral port against $JOURNAL, parse
# the bound address from the log, wait for /healthz; sets DAEMON and BASE.
start_daemon() {
  "$WORK/rtossimd" -addr 127.0.0.1:0 -journal "$JOURNAL" >"$1" 2>&1 &
  DAEMON=$!
  local addr=""
  for i in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$1" | head -n1)
    [ -n "$addr" ] && break
    kill -0 "$DAEMON" 2>/dev/null || { echo "daemon exited early" >&2; cat "$1" >&2; exit 1; }
    sleep 0.05
  done
  [ -n "$addr" ] || { echo "daemon never logged its address" >&2; cat "$1" >&2; exit 1; }
  BASE="http://$addr"
  for i in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.05
  done
  echo "daemon did not come up" >&2; cat "$1" >&2; exit 1
}

jfield() {
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))[sys.argv[2]])' "$1" "$2"
}

waitdone() {
  for _ in $(seq 1 600); do
    curl -fsS "$BASE/v1/jobs/$1" >"$WORK/status.json"
    state=$(jfield "$WORK/status.json" state)
    case "$state" in done|failed|canceled) echo "$state"; return 0;; esac
    sleep 0.05
  done
  echo "timeout"; return 1
}

cat >"$WORK/sweep.json" <<'EOF'
{"kind": "sweep",
 "scenario": {"name": "slow", "horizon": "200ms",
   "processors": [{"name": "cpu0"}],
   "tasks": [{"name": "t", "processor": "cpu0", "priority": 2, "period": "20us",
              "body": [{"op": "execute", "for": "5us"}]}]},
 "sweep": {"workers": 1, "seeds": [1,2,3,4,5,6,7,8]}}
EOF

# Life 1: submit the sweep, wait until it is running, then SIGKILL — no
# shutdown path runs; the fsynced journal is all that survives.
start_daemon "$WORK/life1.log"
curl -fsS "$BASE/v1/jobs" --data-binary @"$WORK/sweep.json" >"$WORK/job.json"
SID=$(jfield "$WORK/job.json" id)
for _ in $(seq 1 200); do
  curl -fsS "$BASE/v1/jobs/$SID" >"$WORK/sstate.json"
  [ "$(jfield "$WORK/sstate.json" state)" != queued ] && break
  sleep 0.02
done
kill -9 "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
DAEMON=""

# A torn append on top of the kill: half a record, no trailing newline. The
# next start must truncate it and keep every valid record before it.
printf 'deadbeef {"op":"end","id":"j0' >>"$JOURNAL/journal.ndjson"

# Life 2: the journal replays, the unfinished sweep re-runs to completion
# under its original ID.
start_daemon "$WORK/life2.log"
STATE=$(waitdone "$SID")
[ "$STATE" = done ] || { echo "recovered job finished $STATE, want done" >&2; cat "$WORK/life2.log" >&2; exit 1; }
grep -q "re-enqueued" "$WORK/life2.log" || {
  echo "daemon log shows no journal replay" >&2; cat "$WORK/life2.log" >&2; exit 1; }
curl -fsS "$BASE/v1/jobs/$SID/report" >"$WORK/recovered.report"
curl -fsS "$BASE/v1/jobs/$SID/results" >"$WORK/recovered.results"

# Uninterrupted reference run of the identical request: byte-identical report.
curl -fsS "$BASE/v1/jobs" --data-binary @"$WORK/sweep.json" >"$WORK/job2.json"
FID=$(jfield "$WORK/job2.json" id)
[ "$(waitdone "$FID")" = done ] || { echo "reference job did not complete" >&2; exit 1; }
curl -fsS "$BASE/v1/jobs/$FID/report" | cmp - "$WORK/recovered.report" || {
  echo "recovered report differs from uninterrupted run" >&2; exit 1; }

# Life 3 after a graceful stop: terminal jobs restore from the journal with
# their bytes, no re-run.
kill "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
DAEMON=""
start_daemon "$WORK/life3.log"
curl -fsS "$BASE/v1/jobs/$SID" >"$WORK/restored.json"
[ "$(jfield "$WORK/restored.json" state)" = done ] || {
  echo "job not restored done after graceful restart" >&2; cat "$WORK/life3.log" >&2; exit 1; }
curl -fsS "$BASE/v1/jobs/$SID/report" | cmp - "$WORK/recovered.report" || {
  echo "restored report differs from pre-restart bytes" >&2; exit 1; }
curl -fsS "$BASE/v1/jobs/$SID/results" | cmp - "$WORK/recovered.results" || {
  echo "restored sweep results differ from pre-restart bytes" >&2; exit 1; }

echo "rtossimd restart smoke: ok"
