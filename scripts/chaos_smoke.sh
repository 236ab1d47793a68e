#!/usr/bin/env bash
# Chaos smoke: the real-process confirmation of one fault schedule that
# TestFaultSchedules explores in process (its seed 3: a lone replayd killed
# under a spooling actor and a learner riding -replay-retry). marl-replayd is
# SIGKILLed once the learner is mid-run and restarted on the same port and
# directory once the actor has spooled. Asserts the learner completes, zero
# experience loss (rows applied == rows the actor and the learner produced),
# no spooled batch left behind, and clean exits on SIGTERM.
#
# Port and output directory are overridable via REPLAY_PORT / OUT.
set -euo pipefail

cd "$(dirname "$0")/.."

REPLAY_PORT=${REPLAY_PORT:-19310}
OUT=${OUT:-$(mktemp -d)}
BIN="$OUT/bin"
mkdir -p "$BIN"

echo "building binaries into $BIN"
for cmd in marl-replayd marl-actor marl-train; do go build -o "$BIN/$cmd" "./cmd/$cmd"; done

cleanup() {
  trap - EXIT INT TERM
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

fail() { echo "FAIL: $1" >&2; tail -n 25 "$OUT"/*.log >&2; exit 1; }

# poll WHAT CMD...: retry CMD every 0.1 s for up to 60 s.
poll() {
  local what=$1 && shift
  for _ in $(seq 1 600); do "$@" >/dev/null 2>&1 && return 0; sleep 0.1; done
  fail "$what"
}

start_replayd() {
  "$BIN/marl-replayd" -addr "127.0.0.1:$REPLAY_PORT" -dir "$OUT/replay" -env cn -agents 3 >>"$OUT/replayd.log" 2>&1 &
  REPLAYD=$!
  poll "replayd never became healthy" curl -sf "http://127.0.0.1:$REPLAY_PORT/healthz"
}

start_replayd
"$BIN/marl-actor" -replay-addr "127.0.0.1:$REPLAY_PORT" -env cn -agents 3 -actor-id actor-0 -envs 2 \
  -episodes 0 -seed 7 -batch-rows 64 -spool-dir "$OUT/spool" >"$OUT/actor.log" 2>&1 &
ACTOR=$!
"$BIN/marl-train" -replay-addr "127.0.0.1:$REPLAY_PORT" -replay-retry 1m \
  -env cn -agents 3 -episodes 1000 -batch 64 -log-every 10 >"$OUT/learner.log" 2>&1 &
LEARNER=$!

# Fire the kill on learner progress, not on a clock: at episode 100 the
# learner is training off the service, with 900 episodes to go.
poll "learner never reached episode 100" grep -q '^episode *1[0-9][0-9] ' "$OUT/learner.log"
kill -KILL "$REPLAYD"
wait "$REPLAYD" 2>/dev/null || true
ep=$(sed -n 's/^episode *\([0-9]*\) .*/\1/p' "$OUT/learner.log" | tail -n 1)
[ "$ep" -lt 1000 ] || fail "the learner finished before the kill landed"
echo "chaos: SIGKILLed replayd with the learner at episode $ep"
poll "the actor never spooled while replayd was down" grep -q 'spool: diverted batch' "$OUT/actor.log"
echo "chaos: actor spooled; restarting replayd on the same directory"
start_replayd

wait "$LEARNER" || fail "learner exited $?"
kill -TERM "$ACTOR"
rc=0; wait "$ACTOR" || rc=$?
[ "$rc" = 0 ] || [ "$rc" = 3 ] || fail "actor exited $rc on SIGTERM" # 3: interrupted, flushed

# Zero experience loss: every transition produced is applied exactly once.
actor_rows=$(sed -n 's/^done: [0-9]* episodes, \([0-9]*\) transitions published.*/\1/p' "$OUT/actor.log")
learner_rows=$(sed -n 's/.*(\([0-9]*\) env steps.*/\1/p' "$OUT/learner.log" | tail -n 1)
[ -n "$actor_rows" ] && [ -n "$learner_rows" ] || fail "no row count in the actor or learner log"
applied=$(curl -sf "http://127.0.0.1:$REPLAY_PORT/v1/stats" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
[ "$applied" = $((actor_rows + learner_rows)) ] ||
  fail "experience loss or duplication: replayd applied ${applied:-?} rows, producers shipped $((actor_rows + learner_rows))"
echo "zero experience loss: $applied rows applied"
[ -z "$(find "$OUT/spool" -name 'spool-*.xpb')" ] || fail "spooled batches left behind"

kill -TERM "$REPLAYD"
wait "$REPLAYD" || fail "marl-replayd exited $? on SIGTERM, want 0"
echo "chaos smoke OK (logs in $OUT)"
