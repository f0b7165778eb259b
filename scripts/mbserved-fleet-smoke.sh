#!/usr/bin/env bash
# End-to-end smoke test for the mbserved fleet:
#   1. start a coordinator (not ready until a worker connects) and two
#      workers, submit a deliberately slow job plus a concurrent duplicate
#      (which must coalesce onto the same execution),
#   2. kill -9 the worker holding the lease mid-job and assert zero job
#      loss: both submissions complete on the surviving worker,
#   3. resubmit the same spec and assert it answers from the result cache,
#   4. SIGTERM a worker mid-job (the graceful stop) and assert the same
#      zero-loss story: the job re-dispatches instead of failing, and the
#      stopped worker exits promptly,
#   5. run the spec on a plain single-process server and assert the
#      fleet's kill-9-interrupted result is byte-identical to it,
#   6. on a fresh fleet with a short -lease-ttl, SIGSTOP the worker holding
#      the lease (its TCP connection stays up, its heartbeats stop) and
#      assert the coordinator drops it: the job finishes on the other
#      worker with the same bytes, and after SIGCONT the stopped worker
#      re-registers.
set -euo pipefail

# Hard timeout guard: the whole smoke test must finish inside
# $MBSMOKE_TIMEOUT seconds (default 300) or be killed — a wedged fleet has
# to fail CI loudly instead of hanging the job until the runner reaps it.
# The script re-execs itself under coreutils timeout; the TERM trap below
# dumps diagnostics before dying so the expiry is debuggable from the log.
if [ -z "${MBSMOKE_GUARDED:-}" ]; then
  MBSMOKE_GUARDED=1 exec timeout --kill-after=15 "${MBSMOKE_TIMEOUT:-300}" "$0" "$@"
fi

BIN=${1:?usage: mbserved-fleet-smoke.sh path/to/mbserved}
ADDR=127.0.0.1:8090
BASE=http://$ADDR
COORD=127.0.0.1:9190
STATE=$(mktemp -d)
CACHE=$STATE/cache
LOG=$STATE/coordinator.log
SPEC='{"kind":"characterize","units":["Antutu Mem"],"runs":2,"workers":1,"inject":"hang=1,hang_sec=2,clean_after=-1"}'
trap 'kill -CONT $(jobs -p) 2>/dev/null || true; kill $(jobs -p) 2>/dev/null || true; cat "$LOG" "$STATE"/w*.log 2>/dev/null || true' EXIT

# Expiry diagnostics: when the timeout guard TERMs us, say where the fleet
# was stuck (processes, job table, logs) before the EXIT trap cleans up.
on_timeout() {
  echo "FAIL: smoke test exceeded ${MBSMOKE_TIMEOUT:-300}s; dumping diagnostics" >&2
  jobs -l >&2 || true
  curl -fsS --max-time 2 "$BASE/jobs" >&2 || true
  echo >&2
  exit 124
}
trap on_timeout TERM

wait_http() { # wait_http URL SECONDS
  for _ in $(seq 1 $((10 * $2))); do
    curl -fsS "$1" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "FAIL: $1 never came up" >&2
  exit 1
}

submit() { # submit [SPEC] -> job id on stdout
  curl -fsS -d "${1:-$SPEC}" "$BASE/jobs" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'
}

wait_done() { # wait_done ID SECONDS
  local status=""
  for _ in $(seq 1 $((10 * $2))); do
    status=$(curl -fsS "$BASE/jobs/$1" | sed -n 's/.*"status":"\([^"]*\)".*/\1/p')
    [ "$status" = done ] && return 0
    [ "$status" = failed ] && { echo "FAIL: job $1 failed" >&2; curl -fsS "$BASE/jobs/$1" >&2; exit 1; }
    sleep 0.1
  done
  echo "FAIL: job $1 stuck in '$status'" >&2
  exit 1
}

result_of() { # result_of ID -> canonical result JSON on stdout
  curl -fsS "$BASE/jobs/$1" | python3 -c '
import json, sys
print(json.dumps(json.load(sys.stdin)["result"], sort_keys=True))'
}

"$BIN" -addr "$ADDR" -coordinator "$COORD" -state "$STATE" -cache-dir "$CACHE" \
  -concurrent 2 -drain-grace 200ms >>"$LOG" 2>&1 &
SRV=$!
wait_http "$BASE/healthz" 10

# No worker yet: alive but not ready.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")
[ "$CODE" = 503 ] || { echo "FAIL: readyz=$CODE with no workers, want 503" >&2; exit 1; }

"$BIN" -worker "$COORD" -worker-id w1 >>"$STATE/w1.log" 2>&1 &
W1=$!
"$BIN" -worker "$COORD" -worker-id w2 >>"$STATE/w2.log" 2>&1 &
W2=$!
wait_http "$BASE/readyz" 10
echo "coordinator ready with workers w1, w2"

# One slow job (every attempt hangs 2 s mid-run without altering the data)
# plus an identical concurrent duplicate: the duplicate must coalesce onto
# the first execution, not dispatch a second one.
A=$(submit)
B=$(submit)
[ -n "$A" ] && [ -n "$B" ] || { echo "FAIL: submissions not accepted" >&2; exit 1; }
echo "accepted $A and duplicate $B"

# Wait until at least one (benchmark, run) is durably checkpointed, then
# kill -9 the worker holding the lease. Deterministic placement sent the
# single in-flight execution to w1 (lexicographically first at equal load).
for _ in $(seq 1 300); do
  [ -s "$STATE/$A.ckpt" ] || [ -s "$STATE/$B.ckpt" ] && break
  sleep 0.1
done
[ -s "$STATE/$A.ckpt" ] || [ -s "$STATE/$B.ckpt" ] || { echo "FAIL: no checkpoint appeared" >&2; exit 1; }
kill -9 "$W1"
wait "$W1" 2>/dev/null || true
echo "killed w1 mid-job"

# Zero job loss: both the job and its coalesced duplicate complete on the
# survivor, resuming from the checkpoint.
wait_done "$A" 60
wait_done "$B" 60
RA=$(result_of "$A")
RB=$(result_of "$B")
[ "$RA" = "$RB" ] || { echo "FAIL: duplicate's bytes diverge from the original's" >&2; exit 1; }
COALESCED=$(curl -fsS "$BASE/jobs/$A" "$BASE/jobs/$B" | grep -c '"coalesced":true' || true)
[ "$COALESCED" = 1 ] || { echo "FAIL: want exactly 1 coalesced job, got $COALESCED" >&2; exit 1; }
echo "both jobs done after kill -9; duplicate coalesced with identical bytes"

# A repeat submission answers from the content-addressed cache.
C=$(submit)
wait_done "$C" 30
curl -fsS "$BASE/jobs/$C" | grep -q '"cached":true' || { echo "FAIL: resubmission missed the cache" >&2; exit 1; }
RC=$(result_of "$C")
[ "$RC" = "$RA" ] || { echo "FAIL: cached bytes diverge" >&2; exit 1; }
echo "resubmission $C served from cache with identical bytes"

# A *graceful* stop (SIGTERM) of the worker holding a lease must present
# the same surface as the kill -9: the job re-dispatches to another worker
# and completes — cancellation is never reported as a permanent failure —
# and the stopped worker exits promptly instead of hanging until SIGKILL.
"$BIN" -worker "$COORD" -worker-id w3 >>"$STATE/w3.log" 2>&1 &
W3=$!
SPEC_TERM='{"kind":"characterize","units":["Antutu Mem"],"runs":2,"workers":1,"seed":999,"inject":"hang=1,hang_sec=2,clean_after=-1"}'
E=$(submit "$SPEC_TERM") # new seed: a fresh execution, not a cache hit
for _ in $(seq 1 300); do
  [ -s "$STATE/$E.ckpt" ] && break
  sleep 0.1
done
[ -s "$STATE/$E.ckpt" ] || { echo "FAIL: SIGTERM job never checkpointed" >&2; exit 1; }
kill -TERM "$W2" # deterministic placement leased the job to w2 (first at equal load)
for _ in $(seq 1 100); do
  kill -0 "$W2" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$W2" 2>/dev/null && { echo "FAIL: SIGTERM'd worker still running after 10s" >&2; exit 1; }
wait_done "$E" 60
curl -fsS "$BASE/jobs/$E" | grep -q '"cached":true' && { echo "FAIL: SIGTERM job unexpectedly cached" >&2; exit 1; }
echo "job $E survived a graceful worker stop; w2 exited promptly"

kill -TERM "$SRV"
wait "$SRV" || { echo "FAIL: coordinator exited non-zero on SIGTERM" >&2; exit 1; }
kill -TERM "$W3" 2>/dev/null || true

# The kill-9-interrupted, re-dispatched result must be byte-identical to
# an undisturbed single-process run of the same spec.
SOLO=$(mktemp -d)
"$BIN" -addr "$ADDR" -state "$SOLO" >>"$LOG" 2>&1 &
SRV=$!
wait_http "$BASE/readyz" 10
D=$(submit)
wait_done "$D" 60
RD=$(result_of "$D")
[ "$RD" = "$RA" ] || {
  echo "FAIL: fleet result diverges from undisturbed single-process run" >&2
  echo "fleet: $RA" >&2
  echo "solo:  $RD" >&2
  exit 1
}
echo "fleet result byte-identical to undisturbed run"
kill -TERM "$SRV"
wait "$SRV"

# SIGSTOP: a worker that is frozen, not dead, keeps its TCP connection, so
# only the missing heartbeats can give it away. A fresh fleet without a
# cache executes the spec again; s1 sorts first, so it takes the lease.
STOPST=$(mktemp -d)
"$BIN" -addr "$ADDR" -coordinator "$COORD" -state "$STOPST" -lease-ttl 2s \
  -drain-grace 200ms >>"$LOG" 2>&1 &
SRV=$!
wait_http "$BASE/healthz" 10
"$BIN" -worker "$COORD" -worker-id s1 -heartbeat 250ms >>"$STATE/w-s1.log" 2>&1 &
S1=$!
"$BIN" -worker "$COORD" -worker-id s2 -heartbeat 250ms >>"$STATE/w-s2.log" 2>&1 &
S2=$!
wait_http "$BASE/readyz" 10
F=$(submit)
for _ in $(seq 1 300); do
  [ -s "$STOPST/$F.ckpt" ] && break
  sleep 0.1
done
[ -s "$STOPST/$F.ckpt" ] || { echo "FAIL: SIGSTOP job never checkpointed" >&2; exit 1; }
kill -STOP "$S1"
wait_done "$F" 60 # s1 is still stopped, so s2 finished it
RF=$(result_of "$F")
[ "$RF" = "$RA" ] || { echo "FAIL: result after SIGSTOP diverges from the undisturbed run" >&2; exit 1; }
echo "job $F finished on s2 while s1 was stopped, with identical bytes"

# With s2 gone and s1 dropped the fleet is empty; SIGCONT must bring s1
# back through its reconnect loop.
kill -9 "$S2"
wait "$S2" 2>/dev/null || true
for _ in $(seq 1 100); do
  [ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")" = 503 ] && break
  sleep 0.1
done
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")
[ "$CODE" = 503 ] || { echo "FAIL: readyz=$CODE with s1 stopped and s2 killed, want 503" >&2; exit 1; }
kill -CONT "$S1"
wait_http "$BASE/readyz" 20
echo "s1 re-registered after SIGCONT"

kill -TERM "$SRV"
wait "$SRV" || { echo "FAIL: coordinator exited non-zero on SIGTERM" >&2; exit 1; }
kill -TERM "$S1" 2>/dev/null || true
trap - EXIT
echo "PASS"
