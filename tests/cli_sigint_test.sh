#!/bin/sh
# Exercises rav_cli's SIGINT contract end to end (docs/robustness.md):
#
#   first Ctrl-C   cooperative drain — the run winds down and exits 5
#                  (cancelled)
#   second Ctrl-C  the handler restored SIG_DFL on the first one, so the
#                  second kills the process (exit 128+SIGINT = 130)
#
# The vehicle is `rav_cli batch` writing its answers into a FIFO that this
# script holds open but does not read: 2,000 `stats` answers (about 1 MB)
# do not fit the pipe buffer, and a drain finishes only once every answer
# is flushed, so the process is deterministically alive when each signal
# lands — neither case races the run's natural completion.
#
# Usage: cli_sigint_test.sh <rav_cli> <scratch-dir>
set -u

CLI="$1"
WORK="$2"
mkdir -p "$WORK"

fail() {
  echo "cli_sigint_test: FAIL: $1" >&2
  [ -n "${pid:-}" ] && kill -9 "$pid" 2>/dev/null
  [ -n "${reader:-}" ] && kill "$reader" 2>/dev/null
  exit 1
}

require_alive() {
  kill -0 "$1" 2>/dev/null || fail "$2"
}

REQUESTS="$WORK/requests.jsonl"
yes '{"id":"s","op":"stats"}' | head -n 2000 >"$REQUESTS"
FIFO="$WORK/responses.fifo"

# Starts batch with its stdout on a fresh FIFO whose read end this script
# holds (fd 4, opened read-write so neither open blocks) without reading.
start_batch() {
  rm -f "$FIFO"
  mkfifo "$FIFO" || fail "cannot create FIFO"
  exec 4<>"$FIFO"
  "$CLI" batch "$REQUESTS" >"$FIFO" 2>/dev/null &
  pid=$!
  sleep 0.3
  require_alive "$pid" "batch finished before the first SIGINT"
}

# --- case 1: one SIGINT -> cooperative drain -> exit 5 ------------------
start_batch
kill -INT "$pid"
sleep 0.3
# Cooperative: the handler only sets a flag; the drain is still waiting
# to flush its answers, not signal-killed.
require_alive "$pid" "first SIGINT killed the process (should be cooperative)"
cat <&4 >/dev/null &   # read the answers: the flush completes
reader=$!
wait "$pid"
got=$?
kill "$reader" 2>/dev/null
reader=""
exec 4>&-
[ "$got" -eq 5 ] || fail "single SIGINT: exit $got, want 5 (cancelled)"
echo "-- single SIGINT: cooperative drain, exit 5"

# --- case 2: two SIGINTs -> default disposition -> killed (130) ---------
start_batch
kill -INT "$pid"          # handler: drain + restore SIG_DFL
sleep 0.3
require_alive "$pid" "process died after one SIGINT in the double case"
kill -INT "$pid"          # default disposition now: kill
wait "$pid"
got=$?
exec 4>&-
rm -f "$FIFO"
[ "$got" -eq 130 ] || fail "double SIGINT: exit $got, want 130 (killed)"
echo "-- double SIGINT: SIG_DFL restored, killed with 130"

echo "cli_sigint_test: PASS"
