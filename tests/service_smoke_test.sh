#!/usr/bin/env bash
# End-to-end serve/submit smoke over real processes, gated in ctest at
# two shard counts. Covers the service acceptance path:
#
#   1. submit a sweep to a `dynbcast serve` instance whose first worker
#      wave is fault-injected to die at a task boundary (--worker-max-
#      tasks) — the server must resume the dead workers' ranges and the
#      streamed CSV must be byte-identical to `dynbcast sweep`'s
#      committed golden;
#   2. submit a spec with a bad parameter value — it must exit 2 and
#      leave the state dir's manifest count unchanged;
#   3. resubmit the first request — zero tasks may execute (100% cache
#      hits), same bytes;
#   4. submit a model-zoo sweep (edge-markovian) — its CSV must be
#      byte-identical to the golden `dynbcast sweep --dynamics=…` is
#      gated against, which sits next to <golden-csv>.
#
# Usage: service_smoke_test.sh <dynbcast-binary> <golden-csv> <workdir> <workers>
set -euo pipefail

BIN="$1"
GOLDEN="$2"
DYNAMICS_GOLDEN="$(dirname "$GOLDEN")/cli_dynamics_edge_markovian_sizes8_32_2.csv"
WORKDIR="$3"
WORKERS="$4"

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
SOCK="$WORKDIR/sock"

"$BIN" serve --socket="$SOCK" --state="$WORKDIR/state" \
  --workers="$WORKERS" --jobs=2 --worker-max-tasks=7 --max-requests=3 \
  >"$WORKDIR/serve.log" 2>&1 &
SERVER=$!
trap 'kill "$SERVER" 2>/dev/null || true' EXIT

for _ in $(seq 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "FAIL: server socket never appeared"; exit 1; }

# Cold submission through the fault-injected worker wave. The golden is
# the one `dynbcast sweep --sizes=4:32:4` is gated against, so equality
# here is direct-vs-served byte identity.
"$BIN" submit --socket="$SOCK" --sizes=4:32:4 --csv="$WORKDIR/served.csv" \
  >"$WORKDIR/submit1.out"
cmp "$WORKDIR/served.csv" "$GOLDEN" || {
  echo "FAIL: served CSV differs from the sweep golden (workers=$WORKERS)"
  exit 1
}
grep -Eq 'service: job=[0-9a-f]{16} tasks=[0-9]+ ' "$WORKDIR/submit1.out" || {
  echo "FAIL: no service stats line in the first submission output"
  exit 1
}

# A bad parameter value is rejected before any job state exists. It
# runs while the server still has a request slot left, so a submission
# that reached the server would show up as a new manifest.
manifests() { find "$WORKDIR/state" -name 'job-*.manifest' | wc -l; }
BEFORE=$(manifests)
STATUS=0
"$BIN" submit --socket="$SOCK" --sizes=4,8 --adversaries="beam:width=0" \
  >"$WORKDIR/submit_bad.out" 2>&1 || STATUS=$?
[ "$STATUS" -eq 2 ] || {
  echo "FAIL: bad beam width exited $STATUS, expected 2"
  cat "$WORKDIR/submit_bad.out"
  exit 1
}
[ "$(manifests)" -eq "$BEFORE" ] || {
  echo "FAIL: a rejected submission changed the manifest count"
  exit 1
}

# Warm resubmission: the whole job must come from the result cache.
"$BIN" submit --socket="$SOCK" --sizes=4:32:4 --csv="$WORKDIR/served2.csv" \
  >"$WORKDIR/submit2.out"
cmp "$WORKDIR/served2.csv" "$GOLDEN" || {
  echo "FAIL: resubmitted CSV differs from the sweep golden"
  exit 1
}
grep -Eq 'service: .* cache-hits=[1-9][0-9]* executed=0$' \
  "$WORKDIR/submit2.out" || {
  echo "FAIL: resubmission executed tasks instead of hitting the cache:"
  grep 'service:' "$WORKDIR/submit2.out" || true
  exit 1
}

# The model-zoo report through the service, against the direct sweep's
# golden (its first worker wave is fault-injected too).
"$BIN" submit --socket="$SOCK" --dynamics=edge-markovian:p=0.05,q=0.25 \
  --sizes=8:32:2 --seeds=4 --csv="$WORKDIR/served_dynamics.csv" \
  >"$WORKDIR/submit3.out"
cmp "$WORKDIR/served_dynamics.csv" "$DYNAMICS_GOLDEN" || {
  echo "FAIL: served dynamics CSV differs from the sweep golden (workers=$WORKERS)"
  exit 1
}

wait "$SERVER"
trap - EXIT
echo "PASS: served CSVs byte-identical (workers=$WORKERS), resubmit 100% cached, bad value rejected"
