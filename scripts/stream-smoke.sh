#!/usr/bin/env bash
# End-to-end smoke test for the streaming ingest path:
#   1. start a coordinator-mode mbserved with -stream plus one worker,
#      ingest measurement records one at a time and assert every ack
#      carries the next contiguous sequence number,
#   2. tail GET /v1/stream/changes?since=SEQ and assert the change log is
#      monotonic, gap-free and resumable from a cursor,
#   3. POST /v1/stream/report — the batch re-analysis rides the fleet's
#      lease protocol as a normal job — and assert its result bytes are
#      identical to the incrementally-maintained /v1/stream/state,
#   4. repeat the report and assert it answers from the content-addressed
#      cache (the record snapshot is the dataset generation in the key),
#   5. SIGTERM the server and restart it on the same state directory:
#      the replayed state must be byte-identical and the next ingest must
#      continue the sequence, proving persist-before-accept held.
set -euo pipefail

# Hard timeout guard: the whole smoke test must finish inside
# $MBSMOKE_TIMEOUT seconds (default 300) or be killed — a wedged server
# has to fail CI loudly instead of hanging the job until the runner
# reaps it.
if [ -z "${MBSMOKE_GUARDED:-}" ]; then
  MBSMOKE_GUARDED=1 exec timeout --kill-after=15 "${MBSMOKE_TIMEOUT:-300}" "$0" "$@"
fi

BIN=${1:?usage: stream-smoke.sh path/to/mbserved}
ADDR=127.0.0.1:8091
BASE=http://$ADDR
COORD=127.0.0.1:9191
STATE=$(mktemp -d)
CACHE=$STATE/cache
LOG=$STATE/server.log
trap 'kill $(jobs -p) 2>/dev/null || true; cat "$LOG" "$STATE"/w*.log 2>/dev/null || true' EXIT

on_timeout() {
  echo "FAIL: smoke test exceeded ${MBSMOKE_TIMEOUT:-300}s; dumping diagnostics" >&2
  jobs -l >&2 || true
  curl -fsS --max-time 2 "$BASE/v1/stream/state" >&2 || true
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

canon() { python3 -c 'import json, sys; print(json.dumps(json.load(sys.stdin), sort_keys=True))'; }

# Deterministic records around strongly separated centers: ten features per
# record, one record per line. The server runs its only stream mode, whose
# state must equal the batch report byte for byte below.
records() {
  python3 - <<'EOF'
import json
centers = [0.0, 7.0, 30.0, 90.0]
state = 0x2545F4914F6CDD1D
def rnd():
    global state
    state = (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
    return float(state >> 40) / float(1 << 24)
for i in range(10):
    c = centers[i % len(centers)]
    rec = {
        "unit": "unit-%02d" % i,
        "runtime_sec": 5.0 + i,
        "features": [c + rnd() for _ in range(10)],
    }
    print(json.dumps(rec))
EOF
}

"$BIN" -addr "$ADDR" -coordinator "$COORD" -state "$STATE" -cache-dir "$CACHE" \
  -stream -stream-kmin 2 -stream-kmax 4 -drain-grace 200ms >>"$LOG" 2>&1 &
SRV=$!
wait_http "$BASE/healthz" 10
"$BIN" -worker "$COORD" -worker-id w1 >>"$STATE/w1.log" 2>&1 &
W1=$!
wait_http "$BASE/readyz" 10
echo "coordinator ready with worker w1, streaming enabled"

# Ingest records one at a time; every ack must carry the next contiguous
# server-assigned sequence number.
N=0
while IFS= read -r rec; do
  N=$((N + 1))
  SEQ=$(curl -fsS -d "$rec" "$BASE/v1/stream" | sed -n 's/.*"seq":\([0-9]*\).*/\1/p')
  [ "$SEQ" = "$N" ] || { echo "FAIL: ingest $N acked seq '$SEQ'" >&2; exit 1; }
done < <(records)
echo "ingested $N records with contiguous sequences"

# A client-supplied sequence number must be refused: the stream owns them.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -d '{"seq":99,"unit":"x","runtime_sec":1,"features":[1,1,1,1,1,1,1,1,1,1]}' "$BASE/v1/stream")
[ "$CODE" = 400 ] || { echo "FAIL: client-set seq got $CODE, want 400" >&2; exit 1; }

# The change log tails: since=0 returns every delta, a cursor resumes
# mid-stream, and last_seq always reports the newest fold.
CH=$(curl -fsS "$BASE/v1/stream/changes?since=0")
LAST=$(echo "$CH" | sed -n 's/.*"last_seq":\([0-9]*\).*/\1/p')
COUNT=$(echo "$CH" | grep -o '"seq":' | wc -l)
[ "$LAST" = "$N" ] && [ "$COUNT" = "$N" ] || { echo "FAIL: changes since=0: last_seq=$LAST count=$COUNT want $N" >&2; exit 1; }
TAIL=$(curl -fsS "$BASE/v1/stream/changes?since=$((N - 2))")
TCOUNT=$(echo "$TAIL" | grep -o '"seq":' | wc -l)
[ "$TCOUNT" = 2 ] || { echo "FAIL: changes since=$((N - 2)) returned $TCOUNT deltas, want 2" >&2; exit 1; }
echo "change log monotonic and resumable (last_seq=$LAST)"

STATE_JSON=$(curl -fsS "$BASE/v1/stream/state" | canon)

# The batch re-analysis runs as a normal job on the fleet and must land on
# exactly the bytes the live stream state is serving.
RID=$(curl -fsS -XPOST "$BASE/v1/stream/report" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$RID" ] || { echo "FAIL: stream report not accepted" >&2; exit 1; }
wait_done "$RID" 60
REPORT=$(curl -fsS "$BASE/jobs/$RID" | python3 -c 'import json, sys; print(json.dumps(json.load(sys.stdin)["result"], sort_keys=True))')
[ "$REPORT" = "$STATE_JSON" ] || {
  echo "FAIL: batch report diverges from incremental state" >&2
  echo "state:  $STATE_JSON" >&2
  echo "report: $REPORT" >&2
  exit 1
}
echo "batch report $RID byte-identical to incremental state"

# A repeat report answers from the content-addressed cache: the record
# snapshot is the dataset generation in the key, and no record changed.
RID2=$(curl -fsS -XPOST "$BASE/v1/stream/report" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
wait_done "$RID2" 30
curl -fsS "$BASE/jobs/$RID2" | grep -q '"cached":true' || { echo "FAIL: repeat report missed the cache" >&2; exit 1; }
echo "repeat report $RID2 served from cache"

# Restart on the same state directory: the append log replays through the
# same deterministic engine, so the published state must be byte-identical
# and the next ingest must continue the sequence.
kill -TERM "$SRV"
wait "$SRV" || { echo "FAIL: server exited non-zero on SIGTERM" >&2; exit 1; }
"$BIN" -addr "$ADDR" -coordinator "$COORD" -state "$STATE" -cache-dir "$CACHE" \
  -stream -stream-kmin 2 -stream-kmax 4 -drain-grace 200ms >>"$LOG" 2>&1 &
SRV=$!
wait_http "$BASE/healthz" 10
REPLAYED=$(curl -fsS "$BASE/v1/stream/state" | canon)
[ "$REPLAYED" = "$STATE_JSON" ] || {
  echo "FAIL: replayed state diverges from pre-restart state" >&2
  echo "before: $STATE_JSON" >&2
  echo "after:  $REPLAYED" >&2
  exit 1
}
SEQ=$(curl -fsS -d '{"unit":"unit-99","runtime_sec":3,"features":[90.5,90.1,90.7,90.2,90.9,90.3,90.6,90.4,90.8,90.0]}' "$BASE/v1/stream" | sed -n 's/.*"seq":\([0-9]*\).*/\1/p')
[ "$SEQ" = "$((N + 1))" ] || { echo "FAIL: post-restart ingest acked seq '$SEQ', want $((N + 1))" >&2; exit 1; }
echo "restart replayed $N records bit-identically; sequence continued at $SEQ"

kill -TERM "$SRV"
wait "$SRV"
kill -TERM "$W1" 2>/dev/null || true
trap - EXIT
echo "PASS"
