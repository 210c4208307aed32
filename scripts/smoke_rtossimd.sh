#!/usr/bin/env bash
# End-to-end smoke of the rtossimd daemon, mirroring TestE2ERtossimd for CI:
# start the daemon, submit a scenario, poll to completion, assert the served
# report is byte-identical to the rtossim CLI's stdout, resubmit and require
# a cache hit with zero additional simulation runs, scrape /metrics, cancel a
# long sweep mid-flight, run the same scenario through `rtossim -remote`, and
# run a sweep with invalid variants without the daemon going down.
#
# The daemon listens on an ephemeral port (parsed from its own "listening on"
# line), so concurrent CI jobs cannot collide. Set SMOKE_LOG_DIR to keep the
# daemon log after the run (CI uploads it on failure).
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
DAEMON=""
cleanup() {
  status=$?
  if [ -n "$DAEMON" ]; then
    kill "$DAEMON" 2>/dev/null || true
    wait "$DAEMON" 2>/dev/null || true
  fi
  if [ -n "${SMOKE_LOG_DIR:-}" ] && [ -f "$WORK/daemon.log" ]; then
    mkdir -p "$SMOKE_LOG_DIR"
    cp "$WORK/daemon.log" "$SMOKE_LOG_DIR/smoke_rtossimd.daemon.log" || true
  fi
  rm -rf "$WORK"
  exit "$status"
}
trap cleanup EXIT

go build -o "$WORK/rtossim" ./cmd/rtossim
go build -o "$WORK/rtossimd" ./cmd/rtossimd

"$WORK/rtossimd" -addr 127.0.0.1:0 >"$WORK/daemon.log" 2>&1 &
DAEMON=$!

# The daemon logs "listening on 127.0.0.1:PORT" once bound; parse the
# kernel-assigned port from it.
ADDR=""
for i in $(seq 1 100); do
  ADDR=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$WORK/daemon.log" | head -n1)
  [ -n "$ADDR" ] && break
  kill -0 "$DAEMON" 2>/dev/null || { echo "daemon exited early" >&2; cat "$WORK/daemon.log" >&2; exit 1; }
  sleep 0.05
done
[ -n "$ADDR" ] || { echo "daemon never logged its address" >&2; cat "$WORK/daemon.log" >&2; exit 1; }
BASE="http://$ADDR"

for i in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  [ "$i" = 100 ] && { echo "daemon did not come up" >&2; cat "$WORK/daemon.log" >&2; exit 1; }
  sleep 0.1
done

# jfield FILE FIELD — extract one scalar from a JSON object.
jfield() {
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))[sys.argv[2]])' "$1" "$2"
}

# waitdone ID — poll until the job is terminal, echo the final state.
waitdone() {
  for _ in $(seq 1 600); do
    curl -fsS "$BASE/v1/jobs/$1" >"$WORK/status.json"
    state=$(jfield "$WORK/status.json" state)
    case "$state" in done|failed|canceled) echo "$state"; return 0;; esac
    sleep 0.05
  done
  echo "timeout"; return 1
}

# simcount — sum of rtossimd_simulations_total across kinds.
simcount() {
  curl -fsS "$BASE/metrics" | awk '/^rtossimd_simulations_total/ {s += $NF} END {print s+0}'
}

# 1. Submit figure6 and compare the report byte-for-byte with the CLI.
printf '{"scenario": %s}' "$(cat examples/scenarios/figure6.json)" >"$WORK/req.json"
curl -fsS "$BASE/v1/jobs" --data-binary @"$WORK/req.json" >"$WORK/job.json"
ID=$(jfield "$WORK/job.json" id)
[ "$(waitdone "$ID")" = done ] || { echo "job $ID did not complete" >&2; exit 1; }

curl -fsS "$BASE/v1/jobs/$ID/report" >"$WORK/daemon.report"
"$WORK/rtossim" examples/scenarios/figure6.json >"$WORK/cli.report"
cmp "$WORK/daemon.report" "$WORK/cli.report" || {
  echo "daemon report differs from CLI stdout" >&2; exit 1; }
curl -fsS "$BASE/v1/jobs/$ID/trace" | python3 -m json.tool >/dev/null
curl -fsS "$BASE/v1/jobs/$ID/metrics" | python3 -m json.tool >/dev/null

# 2. Resubmit (respelled through python, scrambling field order): cache hit,
#    zero additional simulation runs.
SIMS_BEFORE=$(simcount)
python3 -c 'import json; print(json.dumps({"scenario": json.load(open("examples/scenarios/figure6.json"))}))' >"$WORK/req2.json"
curl -fsS "$BASE/v1/jobs" --data-binary @"$WORK/req2.json" >"$WORK/job2.json"
[ "$(jfield "$WORK/job2.json" cacheHit)" = True ] || {
  echo "resubmission was not served from cache" >&2; cat "$WORK/job2.json" >&2; exit 1; }
SIMS_AFTER=$(simcount)
[ "$SIMS_BEFORE" = "$SIMS_AFTER" ] || {
  echo "cache hit ran a simulation ($SIMS_BEFORE -> $SIMS_AFTER)" >&2; exit 1; }
ID2=$(jfield "$WORK/job2.json" id)
curl -fsS "$BASE/v1/jobs/$ID2/report" | cmp - "$WORK/daemon.report" || {
  echo "cached report differs from original" >&2; exit 1; }

# 3. Cancel a long sweep mid-flight.
cat >"$WORK/sweep.json" <<'EOF'
{"kind": "sweep",
 "scenario": {"name": "slow", "horizon": "200ms",
   "processors": [{"name": "cpu0"}],
   "tasks": [{"name": "t", "processor": "cpu0", "priority": 2, "period": "20us",
              "body": [{"op": "execute", "for": "5us"}]}]},
 "sweep": {"workers": 1, "seeds": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}}
EOF
curl -fsS "$BASE/v1/jobs" --data-binary @"$WORK/sweep.json" >"$WORK/sweepjob.json"
SID=$(jfield "$WORK/sweepjob.json" id)
for _ in $(seq 1 200); do
  curl -fsS "$BASE/v1/jobs/$SID" >"$WORK/sstate.json"
  [ "$(jfield "$WORK/sstate.json" state)" != queued ] && break
  sleep 0.02
done
curl -fsS -X POST "$BASE/v1/jobs/$SID/cancel" >/dev/null
STATE=$(waitdone "$SID")
[ "$STATE" = canceled ] || { echo "sweep after cancel is $STATE, want canceled" >&2; exit 1; }

# 4. The metrics endpoint exposes the queue/cache/worker families.
curl -fsS "$BASE/metrics" >"$WORK/prom.txt"
for fam in rtossimd_jobs_submitted_total rtossimd_cache_hits_total \
           rtossimd_queue_depth rtossimd_workers rtossimd_simulations_total; do
  grep -q "^$fam" "$WORK/prom.txt" || { echo "metric $fam missing" >&2; exit 1; }
done

# 5. `rtossim -remote` proxies through the daemon with byte-identical output.
"$WORK/rtossim" -remote "$ADDR" examples/scenarios/figure6.json >"$WORK/remote.report"
cmp "$WORK/remote.report" "$WORK/cli.report" || {
  echo "rtossim -remote output differs from local run" >&2; exit 1; }

# 6. A sweep whose variants break the base scenario (cores below a task's
#    affinity, the global domain for a pinned task) ends with FAILED rows
#    (exit 1), and the daemon keeps serving.
"$WORK/rtossim" sweep -quiet -remote "$ADDR" internal/runner/testdata/aff_sweep.json \
  >"$WORK/aff.report" 2>&1 && rc=0 || rc=$?
[ "$rc" = 1 ] && grep -q 'FAILED: scenario: task "a": affinity' "$WORK/aff.report" || {
  echo "invalid-variant sweep: exit $rc, want 1 with FAILED rows" >&2; cat "$WORK/aff.report" >&2; exit 1; }
curl -fsS "$BASE/healthz" >/dev/null || {
  echo "daemon stopped serving after the invalid-variant sweep" >&2; cat "$WORK/daemon.log" >&2; exit 1; }

echo "rtossimd smoke: ok"
