#!/usr/bin/env bash
# Five-process full-loop smoke: a real marl-replayd, marl-policyd, two
# vectorized marl-actors and a learner, wired learner → policyd → actors →
# replayd → learner. Every binary is built with the race detector (set to
# halt on the first report), the actors run open-ended until the learner
# finishes, and the script asserts:
#
#   - each actor installs ≥ 2 distinct policy versions (initial + hot-swap);
#   - the policy service served ≥ 2 versions;
#   - the experience service ingested and sampled rows (the learner trained
#     off service-fed replay);
#   - the distributed traces stitch: /tracez captures from all five
#     processes merge (via marl-trace) into ≥1 trace spanning ≥4 distinct
#     processes;
#   - actor0's /metrics holds a nonzero marl_policy_act_lag_versions
#     count (the mean lag is printed: how stale is what the actors ran);
#   - no process tripped the race detector.
#
# Ports/dirs are overridable via REPLAY_PORT / POLICY_PORT / ACTOR0_METRICS_PORT /
# ACTOR1_METRICS_PORT / OUT; the stitch-width gate via REQUIRE_PROCS (how
# many distinct processes one merged trace must span).
#
# REQUIRE_PROCS also sizes the replay tier: the loop always has four
# non-replayd processes (policyd, two actors, the learner), so a gate
# wider than 5 needs REQUIRE_PROCS-4 replayd shards — the actors and
# learner then route a sharded fabric spec (R=1 groups) and one learner
# update's sample fan-out must stitch through every shard. REQUIRE_PROCS=6
# is the two-shard topology: six processes, one trace through both shards.
set -euo pipefail

# Re-exec as a process-group leader so the EXIT trap can take down every
# child — daemons, actors, and anything they spawned — with one group
# signal, even when the script itself dies mid-run.
if [ -z "${CLUSTER_SMOKE_PG:-}" ] && command -v setsid >/dev/null 2>&1; then
  CLUSTER_SMOKE_PG=1 exec setsid --wait "$0" "$@"
fi

cd "$(dirname "$0")/.."

REPLAY_PORT=${REPLAY_PORT:-19300}
POLICY_PORT=${POLICY_PORT:-19400}
ACTOR0_METRICS_PORT=${ACTOR0_METRICS_PORT:-19500}
ACTOR1_METRICS_PORT=${ACTOR1_METRICS_PORT:-19501}
REQUIRE_PROCS=${REQUIRE_PROCS:-4}
# The non-replayd processes number four; a stitch gate wider than five
# can only be met by adding replayd shards.
SHARDS=$((REQUIRE_PROCS > 5 ? REQUIRE_PROCS - 4 : 1))
OUT=${OUT:-$(mktemp -d)}
BIN="$OUT/bin"
mkdir -p "$BIN"

export GORACE="halt_on_error=1"
echo "building race-instrumented binaries into $BIN"
go build -race -o "$BIN/marl-replayd" ./cmd/marl-replayd
go build -race -o "$BIN/marl-policyd" ./cmd/marl-policyd
go build -race -o "$BIN/marl-actor" ./cmd/marl-actor
go build -race -o "$BIN/marl-train" ./cmd/marl-train
go build -o "$BIN/marl-trace" ./cmd/marl-trace

pids=()
cleanup() {
  trap - EXIT
  trap '' INT TERM # ignore our own group-wide signal below
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  # Sweep the whole process group for anything not in pids (only possible
  # when we are the group leader, i.e. after the setsid re-exec).
  kill -TERM -- "-$$" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

wait_health() {
  for _ in $(seq 1 75); do
    if curl -sf "http://$1/healthz" >/dev/null; then return 0; fi
    sleep 0.2
  done
  echo "service $1 never became healthy" >&2
  return 1
}

# One replayd per shard. At SHARDS=1 the fabric spec degenerates to the
# plain single-endpoint address and -shard-id/-ring are omitted; at
# SHARDS>1 the actors and learner route a comma-separated R=1 fabric and
# every replayd validates its own membership against the ring.
REPLAY_ADDR="127.0.0.1:$REPLAY_PORT"
for ((i = 1; i < SHARDS; i++)); do
  REPLAY_ADDR="$REPLAY_ADDR,127.0.0.1:$((REPLAY_PORT + i))"
done
for ((i = 0; i < SHARDS; i++)); do
  shard_flags=()
  if [ "$SHARDS" -gt 1 ]; then
    shard_flags=(-shard-id "shard-$i" -ring "$REPLAY_ADDR")
  fi
  "$BIN/marl-replayd" -addr "127.0.0.1:$((REPLAY_PORT + i))" -dir "$OUT/replay-$i" \
    -env cn -agents 3 -trace "${shard_flags[@]}" >"$OUT/replayd$i.log" 2>&1 &
  pids+=($!)
done
"$BIN/marl-policyd" -addr "127.0.0.1:$POLICY_PORT" -trace >"$OUT/policyd.log" 2>&1 &
pids+=($!)
for ((i = 0; i < SHARDS; i++)); do wait_health "127.0.0.1:$((REPLAY_PORT + i))"; done
wait_health "127.0.0.1:$POLICY_PORT"

# Open-ended actors (-episodes 0): 4 envs each over disjoint global env
# indices, syncing every 5 engine steps; SIGTERMed once the learner is done.
"$BIN/marl-actor" -replay-addr "$REPLAY_ADDR" -policy-addr "127.0.0.1:$POLICY_PORT" \
  -env cn -agents 3 -actor-id actor-0 -envs 4 -first-env 0 -sync-every 5 \
  -episodes 0 -seed 7 -batch-rows 64 -policy-wait 60s \
  -trace -trace-sample 8 -metrics-addr "127.0.0.1:$ACTOR0_METRICS_PORT" >"$OUT/actor0.log" 2>&1 &
A0=$!
pids+=("$A0")
"$BIN/marl-actor" -replay-addr "$REPLAY_ADDR" -policy-addr "127.0.0.1:$POLICY_PORT" \
  -env cn -agents 3 -actor-id actor-1 -envs 4 -first-env 4 -sync-every 5 \
  -episodes 0 -seed 8 -batch-rows 64 -policy-wait 60s \
  -trace -trace-sample 8 -metrics-addr "127.0.0.1:$ACTOR1_METRICS_PORT" >"$OUT/actor1.log" 2>&1 &
A1=$!
pids+=("$A1")

echo "running learner"
"$BIN/marl-train" -replay-addr "$REPLAY_ADDR" \
  -policy-publish-addr "127.0.0.1:$POLICY_PORT" -policy-publish-every 2 \
  -env cn -agents 3 -episodes 40 -batch 64 -log-every 10 \
  -trace -trace-sample 1 -trace-buf 262144 \
  -trace-out "$OUT/learner-trace.json" -profile-json "$OUT/learner-profile.json" \
  >"$OUT/learner.log" 2>&1

# Capture the daemons' and actors' span rings while everything but the
# learner is still up; the learner's own spans were written at its exit.
caps=("policyd:$POLICY_PORT" "actor0:$ACTOR0_METRICS_PORT" "actor1:$ACTOR1_METRICS_PORT")
for ((i = 0; i < SHARDS; i++)); do caps+=("replayd$i:$((REPLAY_PORT + i))"); done
for cap in "${caps[@]}"; do
  name=${cap%%:*} port=${cap##*:}
  curl -sf "http://127.0.0.1:$port/tracez" >"$OUT/$name-tracez.json" \
    || { echo "FAIL: capturing /tracez from $name" >&2; exit 1; }
done

# How stale is what the actors ran: actor0's per-Step histogram of how many
# versions behind the newest policy it knew of it acted, read while it is up.
lag=$(curl -sf "http://127.0.0.1:$ACTOR0_METRICS_PORT/metrics" | awk '
  /^marl_policy_act_lag_versions_sum / { sum = $2 }
  /^marl_policy_act_lag_versions_count / { n = $2 }
  END { if (n > 0) printf "%d steps, mean lag %.3f versions", n, sum / n; else exit 1 }') \
  || { echo "FAIL: actor0 exports no marl_policy_act_lag_versions_count > 0" >&2; exit 1; }
echo "actor0 acted on policies: $lag"

# Stop the actors; exit 3 (interrupted, flushed) and 0 are both clean.
for pid in "$A0" "$A1"; do kill -TERM "$pid" 2>/dev/null || true; done
for pid in "$A0" "$A1"; do
  rc=0; wait "$pid" || rc=$?
  if [ "$rc" != 0 ] && [ "$rc" != 3 ]; then
    echo "actor (pid $pid) exited $rc" >&2
    tail -n 20 "$OUT"/actor*.log >&2
    exit 1
  fi
done

fail() { echo "FAIL: $1" >&2; tail -n 20 "$OUT"/*.log >&2; exit 1; }

for log in "$OUT/actor0.log" "$OUT/actor1.log"; do
  versions=$(grep -o 'policy: installed v[0-9]*' "$log" | sort -u | wc -l)
  if [ "$versions" -lt 2 ]; then
    fail "$log shows $versions distinct policy versions, want ≥ 2"
  fi
  echo "$(basename "$log"): $versions distinct policy versions installed"
done

stats=$(curl -sf "http://127.0.0.1:$POLICY_PORT/v1/policy/stats")
version=$(printf '%s' "$stats" | sed -n 's/.*"version":\([0-9]*\).*/\1/p')
[ "${version:-0}" -ge 2 ] || fail "policyd served version $version, want ≥ 2"
echo "policyd served $version versions"

# Every shard must have taken both sides of the loop: the time-striped
# placement routes appends to all shards and the learner's sample plan
# fans a sub-query to each.
for ((i = 0; i < SHARDS; i++)); do
  metrics=$(curl -sf "http://127.0.0.1:$((REPLAY_PORT + i))/metrics")
  echo "$metrics" | grep '^marl_exp_ingest_rows_total' | awk '{exit !($2 > 0)}' \
    || fail "experience shard $i ingested no rows"
  echo "$metrics" | grep '^marl_exp_sample_requests_total' | awk '{exit !($2 > 0)}' \
    || fail "learner never sampled from experience shard $i"
done

# Merge all the captures into one Chrome trace and gate on the loop's
# end-to-end observability: at least one trace must stitch across
# ≥REQUIRE_PROCS processes (learner update → per-shard replayd sample →
# policyd publish → actor hot-swap). That phase spans agree with the
# profile needs no gate here: a phase's span and its profile entry come
# from the same two clock reads, and TestPhaseSpansEqualProfile
# (internal/core) checks they sum to the same nanoseconds.
capture_files=("$OUT/learner-trace.json")
for cap in "${caps[@]}"; do capture_files+=("$OUT/${cap%%:*}-tracez.json"); done
echo "merging traces"
"$BIN/marl-trace" -o "$OUT/merged-trace.json" -require-procs "$REQUIRE_PROCS" \
  "${capture_files[@]}" \
  | tee "$OUT/trace-report.txt" || fail "trace merge/gates (see $OUT/trace-report.txt)"
[ -s "$OUT/merged-trace.json" ] || fail "merged trace JSON is empty"

if grep -l 'WARNING: DATA RACE' "$OUT"/*.log 2>/dev/null; then
  fail "race detector fired (see logs above)"
fi

echo "cluster smoke OK (logs in $OUT)"
