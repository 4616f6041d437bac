#!/usr/bin/env bash
# End-to-end smoke test of the network serving stack: checks that bad
# numeric server flags exit with status 2, starts cardserved on an
# ephemeral loopback port, fires a burst of queries through cardclient
# (including one with a deliberately unknown estimator to exercise the
# structured-error path), asserts non-zero completions on a parseable
# /metrics page, then SIGTERMs the server and requires a clean drain exit.
#
#   scripts/server_smoke.sh                # default build/ binaries
#   BIN_DIR=build-asan/tools scripts/server_smoke.sh
#
# Registered with ctest as `server_smoke`, so `ctest -R server_smoke` runs
# the whole loop from a fresh build.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN_DIR=${BIN_DIR:-build/tools}
SERVED="$BIN_DIR/cardserved"
CLIENT="$BIN_DIR/cardclient"
for binary in "$SERVED" "$CLIENT"; do
  if [ ! -x "$binary" ]; then
    echo "server_smoke: missing binary $binary (build the 'cardserved' and" \
         "'cardclient' targets first)" >&2
    exit 1
  fi
done

WORK_DIR=$(mktemp -d)
SERVER_LOG="$WORK_DIR/cardserved.log"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

# Numeric server flags that parse but are not finite or are out of range
# are usage errors: exit status 2 before anything is built. `timeout`
# bounds a binary that would accept one and go on to serve.
for flag in --drain-timeout=nan --snapshot-period=inf --snapshot-period=1e10; do
  STATUS=0
  timeout 60 "$SERVED" --port=0 --fast --scale=0.05 "$flag" \
    > "$WORK_DIR/flag.log" 2>&1 || STATUS=$?
  if [ "$STATUS" -ne 2 ]; then
    echo "server_smoke: $flag exited $STATUS, want 2" >&2
    cat "$WORK_DIR/flag.log" >&2
    exit 1
  fi
done

# Ephemeral port (--port=0), tiny dataset, snapshot written fast so the
# JSON artifact also gets exercised.
"$SERVED" --port=0 --fast --scale=0.05 --threads=2 \
  --snapshot="$WORK_DIR/metrics.json" --snapshot-period=0.2 \
  > "$SERVER_LOG" 2>&1 &
SERVER_PID=$!

# The startup line carries the resolved port:
#   cardserved: listening on 127.0.0.1:PORT (...)
PORT=""
for _ in $(seq 1 600); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server_smoke: cardserved exited during startup" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi
  PORT=$(sed -n 's/^cardserved: listening on [0-9.]*:\([0-9]*\) .*/\1/p' \
         "$SERVER_LOG" | head -n1)
  [ -n "$PORT" ] && break
  sleep 0.5
done
if [ -z "$PORT" ]; then
  echo "server_smoke: no listening line after startup timeout" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi
echo "server_smoke: cardserved up on port $PORT"

# Burst of well-formed queries; cardclient exits non-zero on any failure.
BURST="$WORK_DIR/burst.sql"
cat > "$BURST" <<'SQL'
SELECT COUNT(*) FROM users WHERE users.Reputation >= 100;
SELECT COUNT(*) FROM posts, comments WHERE posts.Id = comments.PostId AND comments.Score >= 1;
SELECT COUNT(*) FROM badges WHERE badges.UserId >= 1;
SQL
for _ in 1 2 3; do
  "$CLIENT" --port="$PORT" --estimator=PostgreSQL < "$BURST" > /dev/null
done

# A structured error must come back as a response, not a dropped connection.
if echo "SELECT COUNT(*) FROM users;" | \
   "$CLIENT" --port="$PORT" --estimator=NoSuchModel > "$WORK_DIR/err.out"; then
  echo "server_smoke: unknown estimator unexpectedly succeeded" >&2
  exit 1
fi
grep -q "NotFound" "$WORK_DIR/err.out"

# The metrics page is parseable and shows the completions we just made.
METRICS="$WORK_DIR/metrics.txt"
"$CLIENT" --port="$PORT" --metrics > "$METRICS"
COMPLETED=$(sed -n 's/^cardserved_completed_total \([0-9]*\)$/\1/p' \
            "$METRICS")
if [ -z "$COMPLETED" ] || [ "$COMPLETED" -lt 9 ]; then
  echo "server_smoke: expected >=9 completions, got '${COMPLETED:-none}'" >&2
  cat "$METRICS" >&2
  exit 1
fi
grep -q 'cardserved_latency_seconds{estimator="PostgreSQL",quantile="0.99"}' \
  "$METRICS"
grep -q '^cardserved_failed_total 1$' "$METRICS"  # the NoSuchModel request

# The periodic JSON snapshot landed on disk and is non-empty.
for _ in $(seq 1 20); do
  [ -s "$WORK_DIR/metrics.json" ] && break
  sleep 0.2
done
grep -q '"completed":' "$WORK_DIR/metrics.json"

# Graceful shutdown: SIGTERM drains and the process exits 0 on its own.
kill -TERM "$SERVER_PID"
EXIT_CODE=0
wait "$SERVER_PID" || EXIT_CODE=$?
if [ "$EXIT_CODE" -ne 0 ]; then
  echo "server_smoke: cardserved exited $EXIT_CODE after SIGTERM" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi
grep -q "0 in flight at exit" "$SERVER_LOG"
SERVER_PID=""

echo "server_smoke: OK ($COMPLETED completions, clean SIGTERM drain)"
