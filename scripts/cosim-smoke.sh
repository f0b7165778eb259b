#!/usr/bin/env bash
# End-to-end smoke test for the supervised external timing model, driving
# the real cmd/mbtiming binary through mbsim's -timing-model flag:
#   1. run a short collection on the in-process models (the baseline),
#   2. the same collection timed by an mbtiming child over the cosim
#      protocol — stdout and the checkpoint file must be byte-identical,
#   3. the same collection with the child crashing every 25th batch — the
#      supervision envelope (restart, then circuit break onto the analytic
#      fallback) must still converge to identical bytes, and the
#      degradation must be visible in the provenance line on stderr,
#   4. a replay-logged run, then a re-run over the same log — identical
#      bytes again, now answered from the log instead of fresh queries,
#   5. a run over the log with its final record torn (a crash mid-append)
#      — the torn record is dropped and re-asked, identical bytes again.
set -euo pipefail

# Hard timeout guard: finish inside $MBSMOKE_TIMEOUT seconds (default 300)
# or die loudly with diagnostics — a hung child + supervisor pair must not
# wedge the CI job.
if [ -z "${MBSMOKE_GUARDED:-}" ]; then
  MBSMOKE_GUARDED=1 exec timeout --kill-after=15 "${MBSMOKE_TIMEOUT:-300}" "$0" "$@"
fi

MBSIM=${1:?usage: cosim-smoke.sh path/to/mbsim path/to/mbtiming}
MBTIMING=${2:?usage: cosim-smoke.sh path/to/mbsim path/to/mbtiming}
STATE=$(mktemp -d)
BENCH="Antutu Mem"

trap 'cat "$STATE"/*.err >&2 2>/dev/null || true' EXIT
on_timeout() {
  echo "FAIL: cosim smoke exceeded ${MBSMOKE_TIMEOUT:-300}s; runs so far:" >&2
  ls -l "$STATE" >&2 || true
  exit 124
}
trap on_timeout TERM

run() { # run NAME [mbsim args...] -> $STATE/NAME.{out,err,ckpt}
  local name=$1
  shift
  "$MBSIM" -bench "$BENCH" -runs 2 -workers 1 -checkpoint "$STATE/$name.ckpt" "$@" \
    >"$STATE/$name.out" 2>"$STATE/$name.err"
}

md5() { md5sum "$1" | cut -d' ' -f1; }

same_bytes() { # same_bytes NAME WHAT
  cmp -s "$STATE/inproc.out" "$STATE/$1.out" || {
    echo "FAIL: $2 stdout diverges from in-process" >&2
    diff "$STATE/inproc.out" "$STATE/$1.out" >&2 || true
    exit 1
  }
  [ "$(md5 "$STATE/inproc.ckpt")" = "$(md5 "$STATE/$1.ckpt")" ] || {
    echo "FAIL: $2 checkpoint MD5 diverges from in-process" >&2
    exit 1
  }
}

run inproc
run cosim -timing-model "$MBTIMING"
same_bytes cosim "external analytic model"
echo "external analytic model byte-identical to in-process"

# The child dies on every 25th batch of every process lifetime: the
# supervisor restarts it until the strike budget runs out, then breaks the
# circuit and finishes on the in-process fallback — which computes the
# exact same bytes, so the checkpoint MD5 still must not move.
run chaos -timing-model "$MBTIMING -chaos kill_every=25"
same_bytes chaos "kill-chaos run"
grep -q "degraded timing fallback" "$STATE/chaos.err" || {
  echo "FAIL: kill chaos left no degradation trace in provenance" >&2
  cat "$STATE/chaos.err" >&2
  exit 1
}
echo "kill-chaos run byte-identical; degradation recorded in provenance"

# Replay: the first run logs every accepted reply; the second answers from
# the log. Both must match the baseline bytes.
run replay1 -timing-model "$MBTIMING" -timing-replay "$STATE/replay"
same_bytes replay1 "replay-logged run"
[ -s "$STATE/replay/cosim-replay.log" ] || {
  echo "FAIL: replay log never written" >&2
  exit 1
}
run replay2 -timing-model "$MBTIMING" -timing-replay "$STATE/replay"
same_bytes replay2 "replayed run"
echo "replay log round-trip byte-identical"

# A crash mid-append leaves the log's last record torn: cut its final bytes
# off. The next run drops the torn record, re-asks its query and appends
# again — still the baseline bytes, and the log is never refused or emptied.
LOG="$STATE/replay/cosim-replay.log"
truncate -s -5 "$LOG"
run replay3 -timing-model "$MBTIMING" -timing-replay "$STATE/replay"
same_bytes replay3 "run over a torn replay log"
[ -s "$LOG" ] || {
  echo "FAIL: replay log empty after torn-tail recovery" >&2
  exit 1
}
echo "torn replay-log flush recovered byte-identically"

trap - EXIT
echo "PASS"
