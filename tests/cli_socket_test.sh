#!/bin/sh
# End-to-end contract of the rav_serve socket transport
# (docs/serving.md "Socket transport"):
#
#   1. concurrent loopback clients all get their own answers;
#   2. a client killed mid-request leaves the server healthy (its
#      in-flight work is cancelled, other connections unaffected);
#   3. SIGTERM drains gracefully: in-flight requests answer truthfully
#      truncated, responses flush, the process exits 5 — the same code
#      the stdio path uses for an interrupted run;
#   4. a 100-request differential between stdio mode and socket mode:
#      byte-identical responses modulo timing fields.
#
# Usage: cli_socket_test.sh <rav_serve> <scratch-dir>
set -u

SERVE="$1"
WORK="$2"
mkdir -p "$WORK"
PY="${PYTHON:-python3}"

fail() {
  echo "cli_socket_test: FAIL: $1" >&2
  [ -n "${server_pid:-}" ] && kill -9 "$server_pid" 2>/dev/null
  exit 1
}

# Starts rav_serve --listen on an ephemeral port; sets $server_pid and
# $port. Extra flags come in "$@".
start_server() {
  : >"$WORK/server.err"
  "$SERVE" --listen 127.0.0.1:0 "$@" 2>"$WORK/server.err" &
  server_pid=$!
  port=""
  tries=0
  while [ -z "$port" ]; do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
           "$WORK/server.err")
    [ -n "$port" ] && break
    tries=$((tries + 1))
    [ "$tries" -gt 100 ] && fail "server never printed its port"
    kill -0 "$server_pid" 2>/dev/null || fail "server died at startup"
    sleep 0.1
  done
}

# --- case 1: concurrent clients -----------------------------------------
start_server --threads 4
RAV_PORT=$port "$PY" - <<'EOF' || fail "concurrent clients"
import json, os, socket, threading

port = int(os.environ["RAV_PORT"])
SPEC = ('automaton { registers 1 state ping initial final state pong '
        'transition ping -> pong { x1 = y1 } transition pong -> ping { } '
        'constraint eq 1 1 "ping pong ping" }')
failures = []

def client(c):
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        f = sock.makefile("rw")
        for r in range(5):
            f.write(json.dumps(
                {"id": f"c{c}-r{r}", "op": "empty", "spec": SPEC}) + "\n")
        f.flush()
        seen = set()
        for _ in range(5):
            response = json.loads(f.readline())
            assert response["ok"], response
            assert response["id"].startswith(f"c{c}-"), response
            seen.add(response["id"])
        assert len(seen) == 5
        sock.close()
    except Exception as e:  # noqa: BLE001 - report, don't hang
        failures.append(f"client {c}: {e}")

threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
for t in threads: t.start()
for t in threads: t.join()
assert not failures, failures
EOF
kill -TERM "$server_pid"
wait "$server_pid"
[ $? -eq 5 ] || fail "concurrent-clients server did not drain with exit 5"
echo "-- concurrent clients: every client got its own 5 answers"

# Cases 2 and 3 need a request that stays in flight for a while: an
# always-EMPTY spec whose every candidate lasso is consistent as written
# (no lasso of at most 12 symbols holds a 24-position factor) and is
# refuted only on its pumped window, so the search takes ~0.3 s.
# The same spec is PumpOnlyEmptySpecText() in tests/test_util.h.

# --- case 2: client killed mid-request ----------------------------------
start_server --threads 1
RAV_PORT=$port "$PY" - <<'EOF' &
import json, os, socket, time

port = int(os.environ["RAV_PORT"])
n = 8
spec = ["automaton { registers 1"]
for s in range(n):
    spec.append(f"state q{s} initial final" if s == 0 else f"state q{s} final")
for s in range(n):
    for t in range(n):
        spec.append(f"transition q{s} -> q{t} {{ x1 = y1 }}")
spec.append('constraint neq 1 1 "' + " ".join(["."] * 24) + '" }')
sock = socket.create_connection(("127.0.0.1", port), timeout=30)
sock.sendall((json.dumps(
    {"id": "doomed", "op": "empty", "spec": " ".join(spec)}) + "\n").encode())
time.sleep(3600)  # hold the connection until the script kills us
EOF
victim_pid=$!
sleep 1
kill -0 "$server_pid" 2>/dev/null || fail "server died with a busy client"
kill -9 "$victim_pid"    # the OS resets the TCP connection mid-request
wait "$victim_pid" 2>/dev/null

# The lone worker was stuck in "doomed"; the disconnect must cancel it
# so this fresh client's query op (which NEEDS that worker) is answered
# promptly instead of queueing behind a zombie request.
RAV_PORT=$port "$PY" - <<'EOF' || fail "server unhealthy after client kill"
import json, os, socket

port = int(os.environ["RAV_PORT"])
SPEC = ('automaton { registers 1 state ping initial final state pong '
        'transition ping -> pong { x1 = y1 } transition pong -> ping { } '
        'constraint eq 1 1 "ping pong ping" }')
sock = socket.create_connection(("127.0.0.1", port), timeout=30)
f = sock.makefile("rw")
f.write(json.dumps({"id": "healthy", "op": "empty", "spec": SPEC}) + "\n")
f.flush()
response = json.loads(f.readline())
assert response["ok"] and response["id"] == "healthy", response
assert response["verdict"] == "NONEMPTY", response
EOF
kill -TERM "$server_pid"
wait "$server_pid"
[ $? -eq 5 ] || fail "post-kill server did not drain with exit 5"
echo "-- killed client: in-flight work cancelled, server stayed healthy"

# --- case 3: SIGTERM drain with an in-flight request --------------------
start_server --threads 1
RAV_PORT=$port SERVER_PID=$server_pid "$PY" - <<'EOF' >"$WORK/drain.out" || \
    fail "drain client"
import json, os, signal, socket, time

port = int(os.environ["RAV_PORT"])
server = int(os.environ["SERVER_PID"])
n = 8
spec = ["automaton { registers 1"]
for s in range(n):
    spec.append(f"state q{s} initial final" if s == 0 else f"state q{s} final")
for s in range(n):
    for t in range(n):
        spec.append(f"transition q{s} -> q{t} {{ x1 = y1 }}")
spec.append('constraint neq 1 1 "' + " ".join(["."] * 24) + '" }')
sock = socket.create_connection(("127.0.0.1", port), timeout=30)
f = sock.makefile("rw")
f.write(json.dumps(
    {"id": "inflight", "op": "empty", "spec": " ".join(spec)}) + "\n")
f.flush()
# Stats answers inline on the poll thread even while the lone worker is
# busy — poll it until the worker has actually picked the request up.
for i in range(200):
    f.write(json.dumps({"id": f"s{i}", "op": "stats"}) + "\n")
    f.flush()
    stats = json.loads(f.readline())
    if stats["id"] == "inflight":
        raise AssertionError(
            "the in-flight request answered before the drain began; this "
            "case needs a request that is still running at SIGTERM")
    if stats["details"]["in_flight"] == 1:
        break
    time.sleep(0.05)
else:
    raise AssertionError("request never reached the worker")
os.kill(server, signal.SIGTERM)
# Drain contract: the in-flight request answers truthfully truncated
# (governor trip) and the response is flushed before the close.
response = json.loads(f.readline())
assert response["id"] == "inflight", response
assert response["exit_equivalent"] in (4, 5), response
assert response["error_kind"] == "governor_trip", response
assert response["resource"] == "cancel", response
assert response["retry_after_ms"] >= 0, response
assert f.readline() == ""  # then EOF: the server closed cleanly
print("drained response:", response["verdict"])
EOF
wait "$server_pid"
got=$?
[ "$got" -eq 5 ] || fail "SIGTERM drain: exit $got, want 5"
echo "-- SIGTERM drain: truncated answer flushed, exit 5"

# --- case 4: 100-request stdio-vs-socket differential -------------------
"$PY" - <<'EOF' >"$WORK/requests.jsonl" || fail "generating requests"
import json

PING = ('automaton { registers 1 state ping initial final state pong '
        'transition ping -> pong { x1 = y1 } transition pong -> ping { } '
        'constraint eq 1 1 "ping pong ping" }')
DEAD = ('automaton { registers 1 state ping initial final state pong '
        'state limbo transition ping -> pong { x1 = y1 } '
        'transition pong -> ping { } transition limbo -> ping { } '
        'constraint eq 1 1 "ping pong ping" }')
ops = ["empty", "info", "lint", "lrbound"]
for i in range(100):
    spec = PING if i % 3 else DEAD
    print(json.dumps(
        {"id": f"d{i:03}", "op": ops[i % len(ops)], "spec": spec}))
EOF

# stdio side: single worker, so completion order and the cache hit/miss
# pattern are deterministic.
"$SERVE" --threads 1 <"$WORK/requests.jsonl" >"$WORK/stdio.out" 2>/dev/null \
  || fail "stdio run failed"

start_server --threads 1
RAV_PORT=$port RAV_REQUESTS="$WORK/requests.jsonl" \
    "$PY" - >"$WORK/socket.out" <<'EOF' || fail "socket differential client"
import json, os, socket, threading

port = int(os.environ["RAV_PORT"])
with open(os.environ["RAV_REQUESTS"]) as f:
    requests = [line for line in f if line.strip()]
sock = socket.create_connection(("127.0.0.1", port), timeout=60)
f = sock.makefile("rw")

def send():
    for line in requests:
        f.write(line)
    f.flush()

sender = threading.Thread(target=send)
sender.start()
for _ in range(len(requests)):
    line = f.readline()
    assert line, "server closed early"
    print(line, end="")
sender.join()
EOF
kill -TERM "$server_pid" 2>/dev/null
wait "$server_pid" 2>/dev/null

diff_check() {
  "$PY" - "$WORK/stdio.out" "$WORK/socket.out" <<'EOF'
import json, sys

def normalize(line):
    doc = json.loads(line)
    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in sorted(node.items())
                    if not k.endswith("_ms") and k != "search"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node
    return strip(doc)

with open(sys.argv[1]) as f:
    stdio = {d["id"]: d for d in (normalize(l) for l in f if l.strip())}
with open(sys.argv[2]) as f:
    sock = {d["id"]: d for d in (normalize(l) for l in f if l.strip())}
assert len(stdio) == 100, f"stdio answered {len(stdio)}"
assert len(sock) == 100, f"socket answered {len(sock)}"
assert stdio.keys() == sock.keys()
for rid in stdio:
    if stdio[rid] != sock[rid]:
        print(f"MISMATCH at {rid}:\n  stdio:  {stdio[rid]}\n"
              f"  socket: {sock[rid]}", file=sys.stderr)
        sys.exit(1)
print("100/100 responses identical modulo timing")
EOF
}
diff_check || fail "stdio and socket responses diverge"
echo "-- differential: stdio and socket agree on all 100 requests"

echo "cli_socket_test: PASS"
