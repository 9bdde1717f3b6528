#!/usr/bin/env bash
# run_ci.sh — build, test, and produce BENCH_RESULTS.json in one command.
#
#   tools/run_ci.sh [output.json]
#
# Pipeline (docs/observability.md):
#   1. configure + build the default preset (build/), then a Release
#      build (build-release/): reports record their build type, so every
#      build type they can name must build
#   2. ctest (the tier-1 suite), then the benchmark's own tests
#      (perfbench/test_perfbench.py: replay answers and work counts)
#   3. every bench binary with `--report reports/<bench>.json`
#   4. report_merge -> BENCH_RESULTS.json (validates every report's
#      schema; a missing key fails the merge and therefore the CI run)
#   5. consistency: every bench_* name mentioned in EXPERIMENTS.md must be
#      a real benchmark target, and every report must carry a verdict
#
# Pipeline continues:
#   6. fault-injection matrix: rav_cli under RAV_FAILPOINTS
#      configurations (base/failpoints.h), including a poisoned
#      decision-service request — each must degrade to a clean,
#      documented status, never crash or hang (docs/robustness.md)
#   7. decision-service smoke: rav_serve end to end — concurrent
#      queries, one deadline-tripped, per-request isolation, clean EOF
#      shutdown (docs/serving.md)
#   8. fuzz corpus smoke: the deterministic text-format fuzz runner at
#      a CI-sized input count
#   9. docs gate: every fenced rav_cli / rav_serve invocation shown in
#      the markdown docs is smoke-run (placeholders substituted), and
#      every intra-repo markdown link (including #anchors) must resolve
#      — stale docs fail CI instead of rotting
#  10. perf-regression gate: the hot benchmarks below are compared against
#      the committed baseline (`git show HEAD:BENCH_RESULTS.json`); a
#      single-worker rung whose closures / enumerated / closure_nodes
#      counter rises above it fails the run, and so does a
#      >RAV_PERF_GATE_RATIO× cpu_ns_per_iter slowdown
#
# Environment knobs:
#   RAV_BENCH_MIN_TIME  google-benchmark min time per benchmark, seconds
#                       (default 0.05 — the full suite in a few minutes;
#                       raise for publication-quality numbers)
#   RAV_BENCH_FILTER    --benchmark_filter regex passed to every bench
#   RAV_BENCH_TIMEOUT   wall-clock cap per bench binary, seconds (default
#                       600); a hung bench fails the run instead of
#                       wedging it
#   RAV_JOBS            parallel build jobs (default: nproc)
#   RAV_PERF_GATE       "off" skips the wall-clock half of the
#                       perf-regression gate (noisy or shared machines;
#                       the work-counter half still runs); default "on"
#   RAV_PERF_GATE_RATIO slowdown factor that fails the gate (default 1.3)
#   RAV_TIDY            "off" skips the clang-tidy gate; default "on"
#                       (the gate also skips itself with a notice when
#                       clang-tidy is not installed)

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_RESULTS.json}"
MIN_TIME="${RAV_BENCH_MIN_TIME:-0.05}"
FILTER="${RAV_BENCH_FILTER:-}"
JOBS="${RAV_JOBS:-$(nproc)}"
BENCH_TIMEOUT="${RAV_BENCH_TIMEOUT:-600}"

echo "== configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "== Release build =="
# -O3 is where GCC 12 reports false -Werror=restrict positives (see
# NumberedName in base/numbers.h); the build stays -Werror.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$JOBS"

echo "== tests =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== benchmark tests =="
# The repository benchmark's own tests (perfbench/README.md): they build
# rav_serve and perfbench_replay against the library as changed here and
# replay every workload, requiring zero wrong answers and work counts
# that repeat exactly — so a library change that breaks the frozen
# benchmark fails CI rather than the benchmark run.
python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "== clang-tidy =="
# Static analysis over the library sources plus the test and bench
# binaries (.clang-tidy at the repo root) — test helpers pass the same
# strong-id seams the library does, so they are held to the same
# easily-swappable-parameters bar. Uses the compile_commands.json the
# configure step exported. WarningsAsErrors is '*', so any finding
# fails the run.
if [ "${RAV_TIDY:-on}" = "off" ]; then
  echo "clang-tidy skipped (RAV_TIDY=off)"
elif ! command -v clang-tidy >/dev/null 2>&1; then
  echo "clang-tidy skipped (not installed)"
elif [ ! -f build/compile_commands.json ]; then
  echo "clang-tidy skipped (no compile_commands.json — reconfigure build/)" >&2
  exit 1
else
  find src tests bench -name '*.cc' -print0 \
    | xargs -0 -n 4 -P "$JOBS" clang-tidy -p build --quiet
  echo "clang-tidy passed"
fi

echo "== benches (--report) =="
mkdir -p build/reports
reports=()
for bench in build/bench/bench_*; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  report="build/reports/${name}.json"
  args=(--benchmark_min_time="$MIN_TIME" --report "$report")
  if [ -n "$FILTER" ]; then
    args+=(--benchmark_filter="$FILTER")
  fi
  echo "-- $name"
  # Benches run under a wall-clock cap: a hang (a regression the governor
  # exists to prevent) fails the run with a message instead of wedging CI.
  if ! timeout -k 10 "$BENCH_TIMEOUT" "$bench" "${args[@]}" >/dev/null; then
    echo "bench $name failed or exceeded ${BENCH_TIMEOUT}s" >&2
    exit 1
  fi
  reports+=("$report")
done

echo "== fault-injection matrix =="
# Each configuration arms one failpoint (base/failpoints.h, catalog in
# docs/robustness.md) through the environment and asserts rav_cli lands
# on the documented clean status — never a crash; `timeout` converts a
# hang into a failure. ping_pong.rav is NONEMPTY, so the healthy exit
# code is 3 (property false).
mkdir -p build/reports
run_failpoint() {  # <failpoints> <expected-exit> <description> [args...]
  local fp="$1" want="$2" desc="$3"
  shift 3
  local got=0
  RAV_FAILPOINTS="$fp" timeout 60 build/tools/rav_cli \
      empty tests/data/ping_pong.rav "$@" \
      >build/reports/failpoint.out 2>&1 || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "fault injection '$fp' ($desc): exit $got, want $want" >&2
    cat build/reports/failpoint.out >&2
    exit 1
  fi
  echo "-- $fp -> exit $got ($desc)"
}
run_failpoint "io/text_format/parse=1" 1 \
    "injected parse failure surfaces as a clean load error"
run_failpoint "era/search/worker_spawn=1" 3 \
    "worker-spawn failure degrades the pool, verdict unchanged" --threads 4
run_failpoint "governor/memory=1" 4 \
    "forced memory trip yields a truthful resource-exhausted stop"
# The decision-service seam: a poisoned request is rejected at parse
# time (failpoint in service::ParseRequest) with an error response; the
# other requests in the batch still get answered, and the batch exits 1
# (some requests failed) rather than crashing or taking the rest down.
python3 - <<'EOF' >build/reports/batch_requests.jsonl
import json
spec = open("tests/data/ping_pong.rav").read()
print(json.dumps({"id": "p1", "op": "empty", "spec": spec}))
print(json.dumps({"id": "p2", "op": "info", "spec": spec}))
EOF
got=0
RAV_FAILPOINTS="service/parse_request=1" timeout 60 \
    build/tools/rav_cli batch build/reports/batch_requests.jsonl \
    >build/reports/failpoint.out 2>&1 || got=$?
if [ "$got" -ne 1 ]; then
  echo "fault injection 'service/parse_request=1' (batch): exit $got, want 1" >&2
  cat build/reports/failpoint.out >&2
  exit 1
fi
grep -q "failpoint service/parse_request fired" build/reports/failpoint.out \
  || { echo "batch failpoint: rejection message missing" >&2; exit 1; }
grep -q '"id":"p2".*"ok":true' build/reports/failpoint.out \
  || { echo "batch failpoint: healthy request p2 was not answered" >&2; exit 1; }
echo "-- service/parse_request=1 -> exit 1 (poisoned request rejected, rest answered)"

echo "== decision-service smoke =="
# rav_serve end to end (docs/serving.md): one process, concurrent
# queries including a deadline-tripped one, per-request isolation, spec
# cache reuse, and a clean EOF shutdown. Asserted from the outside —
# the in-process isolation test lives in tests/service_test.cc.
timeout 120 python3 - <<'EOF'
import json, subprocess, sys

spec = open("tests/data/ping_pong.rav").read()
requests = [{"id": "trip", "op": "empty", "spec": spec, "timeout": "0ms"}]
for i in range(8):
    requests.append({"id": f"q{i}", "op": "empty", "spec": spec})
requests.append({"id": "inspect", "op": "info", "spec": spec})
requests.append({"id": "tally", "op": "stats"})
payload = "".join(json.dumps(r) + "\n" for r in requests)

proc = subprocess.run(
    ["build/tools/rav_serve", "--threads", "4"],
    input=payload, capture_output=True, text=True)
if proc.returncode != 0:
    sys.exit(f"rav_serve exit {proc.returncode}, want 0 (clean EOF shutdown)\n"
             f"{proc.stderr}")
responses = {json.loads(l)["id"]: json.loads(l)
             for l in proc.stdout.splitlines()}
if len(responses) != len(requests):
    sys.exit(f"{len(responses)} responses for {len(requests)} requests")

trip = responses["trip"]
if trip["exit_equivalent"] != 4 or trip["details"].get("stop_reason") != "deadline":
    sys.exit(f"deadline request did not trip cleanly: {trip}")
for i in range(8):
    r = responses[f"q{i}"]
    if not (r["ok"] and r["verdict"] == "NONEMPTY" and r["exit_equivalent"] == 3):
        sys.exit(f"concurrent request q{i} disturbed by the tripped one: {r}")
if not responses["inspect"]["ok"]:
    sys.exit(f"info request failed: {responses['inspect']}")
hits = [responses[f"q{i}"]["cache_hit"] for i in range(8)]
if True not in hits:
    sys.exit("no query hit the CompiledSpec cache — amortization is broken")
# `stats` is answered inline, possibly before the queries finish; however
# far they got, nine `empty` queries on one spec build one SControl NBA.
if responses["tally"]["details"]["scontrol_builds"] > 1:
    sys.exit(f"empty queries rebuilt the cached NBA: {responses['tally']}")

# Repeated empty/lrbound queries against one cached spec, one at a time so
# the closing `stats` sees all of them: one NBA per subject, no rebuild.
proc = subprocess.Popen(["build/tools/rav_serve", "--threads", "2"],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                        text=True)
def ask(request):
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())
spec_hash = ask({"id": "c", "op": "empty", "spec": spec})["spec_hash"]
for i in range(3):
    for op, want in (("empty", "NONEMPTY"), ("lrbound", "no growth detected")):
        r = ask({"id": f"{op}{i}", "op": op, "spec_hash": spec_hash})
        if not (r["ok"] and r["verdict"] == want and r["cache_hit"]):
            sys.exit(f"cached {op} query failed: {r}")
stats = ask({"id": "tally", "op": "stats"})["details"]
proc.stdin.close()
if proc.wait(timeout=30) != 0:
    sys.exit("rav_serve did not shut down cleanly after the cached queries")
if stats["scontrol_builds"] != 2 or stats["cache_hits"] != 6:
    sys.exit(f"7 queries on one spec: want 2 NBA builds and 6 cache hits, "
             f"got {stats}")
print("rav_serve smoke passed: 1 tripped + 8 isolated queries, "
      f"{sum(hits)}/8 cache hits, clean shutdown; 7 cached empty/lrbound "
      "queries built 2 SControl NBAs")
EOF

echo "== socket-transport smoke =="
# rav_serve --listen end to end (docs/serving.md "Socket transport"):
# several concurrent loopback clients, one of them killed mid-stream,
# spec-cache reuse asserted across connections, and a clean SIGTERM
# drain (exit 5). The per-feature contract tests (shedding, backpressure,
# deadlines) live in tests/transport_test.cc and tests/cli_socket_test.sh.
timeout 120 python3 - <<'EOF'
import json, os, re, signal, socket, subprocess, sys, threading, time

spec = open("tests/data/ping_pong.rav").read()

server = subprocess.Popen(
    ["build/tools/rav_serve", "--listen", "127.0.0.1:0", "--threads", "4"],
    stderr=subprocess.PIPE, text=True)
line = server.stderr.readline()
m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
if not m:
    sys.exit(f"no listening line from rav_serve: {line!r}")
port = int(m.group(1))

failures = []
def client(c):
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        f = sock.makefile("rw")
        for r in range(4):
            f.write(json.dumps(
                {"id": f"c{c}-r{r}", "op": "empty", "spec": spec}) + "\n")
        f.flush()
        hits = 0
        for _ in range(4):
            resp = json.loads(f.readline())
            if not (resp["ok"] and resp["verdict"] == "NONEMPTY"):
                failures.append(f"client {c}: bad response {resp}")
                return
            hits += bool(resp.get("cache_hit"))
        results[c] = hits
        sock.close()
    except Exception as e:  # noqa: BLE001
        failures.append(f"client {c}: {e}")

results = {}
threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
for t in threads: t.start()

# One more client dies mid-stream: half a request line, then a hard kill
# (RST via SO_LINGER) — the server must shrug it off.
rude = socket.create_connection(("127.0.0.1", port), timeout=60)
rude.sendall(b'{"id": "rude", "op": "emp')
rude.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                __import__("struct").pack("ii", 1, 0))
rude.close()

for t in threads: t.join()
if failures:
    sys.exit("socket smoke failed:\n" + "\n".join(failures))
# The spec is compiled at most a handful of times across 16 requests;
# later requests must hit the cross-connection CompiledSpec cache.
if sum(results.values()) < 8:
    sys.exit(f"too few cache hits across connections: {results}")

server.send_signal(signal.SIGTERM)
code = server.wait(timeout=30)
if code != 5:
    sys.exit(f"SIGTERM drain: rav_serve exit {code}, want 5")
print(f"socket smoke passed: 4 clients x 4 requests, "
      f"{sum(results.values())}/16 cache hits, rude client ignored, "
      "drain exit 5")
EOF

echo "== socket fault-injection matrix =="
# Each run arms one transport failpoint (docs/robustness.md catalog).
# The injected fault must degrade exactly one connection or request —
# the process survives, a healthy follow-up connection gets correct
# verdicts, and the drain still exits 5.
timeout 300 python3 - <<'EOF'
import json, os, re, signal, socket, subprocess, sys

spec = open("tests/data/ping_pong.rav").read()

def start(failpoint):
    env = dict(os.environ)
    env["RAV_FAILPOINTS"] = f"{failpoint}=1"
    server = subprocess.Popen(
        ["build/tools/rav_serve", "--listen", "127.0.0.1:0", "--threads", "2"],
        stderr=subprocess.PIPE, text=True, env=env)
    line = server.stderr.readline()
    m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
    if not m:
        sys.exit(f"[{failpoint}] no listening line: {line!r}")
    return server, int(m.group(1))

def query(port, rid, timeout=30):
    # A faulted connection may be torn down with our request bytes still
    # unread, which surfaces as RST (reset / broken pipe) rather than a
    # clean EOF — both mean "no response", which is what the matrix
    # asserts.
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    f = sock.makefile("rw")
    try:
        f.write(json.dumps({"id": rid, "op": "empty", "spec": spec}) + "\n")
        f.flush()
        line = f.readline()
    except (ConnectionResetError, BrokenPipeError):
        line = ""
    sock.close()
    return json.loads(line) if line else None

def finish(server, failpoint):
    server.send_signal(signal.SIGTERM)
    code = server.wait(timeout=30)
    if code != 5:
        sys.exit(f"[{failpoint}] drain exit {code}, want 5")

# accept: the faulted connection is dropped at accept; the next one works.
server, port = start("service/transport/accept")
first = query(port, "dropped")
if first is not None:
    sys.exit(f"[accept] faulted connection should see EOF, got {first}")
healthy = query(port, "healthy")
if not (healthy and healthy["ok"] and healthy["verdict"] == "NONEMPTY"):
    sys.exit(f"[accept] healthy follow-up broken: {healthy}")
finish(server, "accept")
print("-- service/transport/accept=1 -> one connection dropped, next fine")

# read: the faulted connection is torn down mid-read; the next one works.
server, port = start("service/transport/read")
first = query(port, "torn")
if first is not None:
    sys.exit(f"[read] torn connection should see EOF, got {first}")
healthy = query(port, "healthy")
if not (healthy and healthy["ok"] and healthy["verdict"] == "NONEMPTY"):
    sys.exit(f"[read] healthy follow-up broken: {healthy}")
finish(server, "read")
print("-- service/transport/read=1 -> one connection torn, next fine")

# write: the response flush faults; the connection dies, the next works.
server, port = start("service/transport/write")
first = query(port, "unflushed")
if first is not None:
    sys.exit(f"[write] faulted flush should close the connection, got {first}")
healthy = query(port, "healthy")
if not (healthy and healthy["ok"] and healthy["verdict"] == "NONEMPTY"):
    sys.exit(f"[write] healthy follow-up broken: {healthy}")
finish(server, "write")
print("-- service/transport/write=1 -> one flush faulted, next fine")

# admit: the faulted admission sheds with the structured overload answer
# on the SAME connection, which stays usable for the retry.
server, port = start("service/transport/admit")
sock = socket.create_connection(("127.0.0.1", port), timeout=30)
f = sock.makefile("rw")
f.write(json.dumps({"id": "shed", "op": "empty", "spec": spec}) + "\n")
f.flush()
shed = json.loads(f.readline())
if not (shed["id"] == "shed" and shed["error_kind"] == "overloaded"
        and shed["resource"] == "queue" and shed["retry_after_ms"] >= 0
        and shed["exit_equivalent"] == 4):
    sys.exit(f"[admit] shed response malformed: {shed}")
f.write(json.dumps({"id": "retry", "op": "empty", "spec": spec}) + "\n")
f.flush()
retry = json.loads(f.readline())
if not (retry["ok"] and retry["verdict"] == "NONEMPTY"):
    sys.exit(f"[admit] retry after shed broken: {retry}")
sock.close()
finish(server, "admit")
print("-- service/transport/admit=1 -> structured shed, retry succeeded")
EOF

echo "== fuzz corpus smoke =="
RAV_FUZZ_SMOKE_INPUTS=30000 timeout 300 build/tests/fuzz_smoke >/dev/null
echo "fuzz smoke passed (30000 generated inputs)"

echo "== docs gate =="
# Two checks over the markdown documentation, so the docs can't drift
# from the tools they describe:
#   a) every rav_cli / rav_serve command inside a fenced code block in
#      docs/*.md and README.md still parses and exits with a documented
#      status (0..5, see docs/robustness.md). Usage placeholders are
#      substituted (`[...]` optional groups stripped, `<file>` and
#      nonexistent .rav paths -> a committed example spec); lines with
#      an explicit `...` elision are skipped.
#   b) every intra-repo markdown link — including #anchors, resolved
#      with GitHub's heading-slug rules — points at something that
#      exists.
timeout 300 python3 - <<'EOF'
import glob, json, os, re, shlex, subprocess, sys

DOC_FILES = sorted(glob.glob("docs/*.md")) + ["README.md", "EXPERIMENTS.md"]
SPEC = "examples/data/example1.rav"
failures = []

# A one-request batch file for `rav_cli batch <file|->` usage lines.
os.makedirs("build/reports", exist_ok=True)
batch_file = "build/reports/docs_gate_batch.jsonl"
with open(batch_file, "w") as f:
    f.write(json.dumps({"id": "doc", "op": "info",
                        "spec": open(SPEC).read()}) + "\n")

def extract_commands(path):
    """Yield (lineno, command) for rav_cli/rav_serve lines in fences."""
    in_fence = False
    for lineno, line in enumerate(open(path), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            continue
        text = line.strip()
        # Drop env-var prefixes to find the program word.
        rest = re.sub(r"^([A-Z_][A-Z0-9_]*=\S+\s+)*", "", text)
        prog = rest.split()[0] if rest.split() else ""
        if os.path.basename(prog) in ("rav_cli", "rav_serve"):
            yield lineno, text

def prepare(cmd):
    """Substitute doc placeholders; None means 'skip this line'."""
    cmd = re.sub(r"\[[^\][]*\]", "", cmd)          # strip [...] groups
    cmd = cmd.replace("<file|->", batch_file)
    cmd = cmd.replace("<file>...", SPEC).replace("<file>", SPEC)
    if "..." in cmd or "<" in cmd:                  # elided example line
        return None
    try:
        argv = shlex.split(cmd)
    except ValueError:
        return None
    if "|" in argv:                                 # keep the rav_ half
        argv = argv[: argv.index("|")]
    out = []
    skip_env = True
    for i, arg in enumerate(argv):
        if skip_env and re.fullmatch(r"[A-Z_][A-Z0-9_]*=.*", arg):
            out.append(arg)
            continue
        skip_env = False
        if arg.endswith(".rav") and not os.path.exists(arg):
            arg = SPEC
        if i > 0 and argv[i - 1] == "--report":
            arg = "build/reports/docs_gate_report.json"
        out.append(arg)
    # Resolve bare tool names against the build tree.
    for i, arg in enumerate(out):
        if re.fullmatch(r"[A-Z_][A-Z0-9_]*=.*", arg):
            continue
        if os.path.basename(arg) in ("rav_cli", "rav_serve"):
            out[i] = "build/tools/" + os.path.basename(arg)
        break
    return out

ran = 0
for path in DOC_FILES:
    for lineno, raw in extract_commands(path):
        argv = prepare(raw)
        if argv is None:
            continue
        env = dict(os.environ)
        for arg in list(argv):
            m = re.fullmatch(r"([A-Z_][A-Z0-9_]*)=(.*)", arg)
            if m:
                env[m.group(1)] = m.group(2)
                argv.remove(arg)
        proc = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=120)
        ran += 1
        err = proc.stderr.lower()
        if proc.returncode not in range(6) or "usage:" in err \
                or "unknown" in err:
            failures.append(
                f"{path}:{lineno}: `{raw}` -> exit {proc.returncode}\n"
                f"  ran: {' '.join(argv)}\n  stderr: {proc.stderr.strip()}")
print(f"docs gate: {ran} documented commands smoke-ran")

def slugs(path):
    """GitHub-style anchor slugs of a markdown file's headings."""
    out, in_fence = set(), False
    for line in open(path):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        if in_fence or not line.startswith("#"):
            continue
        text = line.lstrip("#").strip().replace("`", "")
        slug = re.sub(r"[^\w\- ]", "", text.lower()).replace(" ", "-")
        if slug in out:  # GitHub dedups repeats with -1, -2, ...
            n = 1
            while f"{slug}-{n}" in out:
                n += 1
            slug = f"{slug}-{n}"
        out.add(slug)
    return out

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
link_files = DOC_FILES + ["CONTRIBUTING.md", "DESIGN.md", "ROADMAP.md"]
checked = 0
for path in link_files:
    if not os.path.exists(path):
        continue
    in_fence = False
    for lineno, line in enumerate(open(path), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            checked += 1
            ref, _, anchor = target.partition("#")
            dest = os.path.normpath(
                os.path.join(os.path.dirname(path), ref)) if ref else path
            if not os.path.exists(dest):
                failures.append(f"{path}:{lineno}: broken link -> {target}")
                continue
            if anchor and dest.endswith(".md") and anchor not in slugs(dest):
                failures.append(
                    f"{path}:{lineno}: broken anchor -> {target}")
print(f"docs gate: {checked} intra-repo links resolved")

if failures:
    print("docs gate FAILED:", file=sys.stderr)
    print("\n".join(failures), file=sys.stderr)
    sys.exit(1)
EOF

echo "== merge =="
# report_merge validates each report against the schema of base/report.h
# and refuses to write the merged file if any key is missing.
build/tools/report_merge "$OUT" "${reports[@]}"

echo "== consistency checks =="
fail=0
# Every bench mentioned in EXPERIMENTS.md must exist as a benchmark.
for name in $(grep -o 'bench_[a-z0-9_]*' EXPERIMENTS.md | sort -u); do
  if [ ! -f "bench/${name}.cc" ]; then
    echo "EXPERIMENTS.md references nonexistent benchmark: $name" >&2
    fail=1
  fi
done
# Every merged report must have reached a verdict.
python3 - "$OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    merged = json.load(f)
bad = [r["source_file"] for r in merged["reports"] if not r.get("verdict")]
if bad:
    print(f"reports without a verdict: {bad}", file=sys.stderr)
    sys.exit(1)
print(f"{len(merged['reports'])} reports merged, all verdicts present")
EOF
[ "$fail" -eq 0 ] || exit 1

echo "== perf-regression gate =="
# Two gates over the hot benchmarks below, both against the committed
# baseline (the HEAD version of BENCH_RESULTS.json — the working-tree file
# was just overwritten by this run). Benchmarks absent from the baseline
# (new in this change) are skipped.
#   - Work counters: a hot rung's `closures`, `enumerated` and, where
#     present, `closure_nodes` count what its search did, whatever the
#     machine. On single-worker rungs they are deterministic, so any rise
#     above the baseline fails. RAV_PERF_GATE=off does not skip this gate.
#   - Wall clock: cpu_ns_per_iter must stay within RAV_PERF_GATE_RATIO x
#     the baseline. RAV_PERF_GATE=off skips it on noisy machines.
if ! git show HEAD:BENCH_RESULTS.json >build/reports/baseline.json \
    2>/dev/null; then
  echo "perf gate skipped (no committed BENCH_RESULTS.json baseline)"
else
  python3 - "$OUT" build/reports/baseline.json \
      "${RAV_PERF_GATE_RATIO:-1.3}" "${RAV_PERF_GATE:-on}" <<'EOF'
import json, sys

HOT_PREFIXES = (
    "BM_ClosureLinear/",
    "BM_ClosureExtendOneCycle/",
    "BM_EmptinessExample5/",
    "BM_EmptinessContradictory/",
    "BM_LrBoundWindowFamily/",
    "BM_ClosureAndColoring/",
    "BM_PumpSweep/",
    "BM_RealizeWitness/",
    "BM_GuardTablesValidate/",
    "BM_GuardTablesRealize/",
    "BM_EmptinessShiftRingDrain",
    "BM_EmptinessPumpOnlyContradiction",
)
WORK_COUNTERS = ("closures", "enumerated", "closure_nodes")

def hot_rungs(path):
    with open(path) as f:
        merged = json.load(f)
    out = {}
    for report in merged["reports"]:
        for b in report["metrics"]["benchmarks"]:
            name = b["name"]
            if name.startswith(HOT_PREFIXES):
                out[name] = b
    return out

current = hot_rungs(sys.argv[1])
baseline = hot_rungs(sys.argv[2])
ratio_limit = float(sys.argv[3])
wall_clock = sys.argv[4] != "off"
failed = False

# A rung without a `workers` counter runs on one thread.
rises, counted = [], 0
for name, base in sorted(baseline.items()):
    if name not in current:
        continue
    was = base.get("counters", {})
    now = current[name].get("counters", {})
    if was.get("workers", 1) != 1 or now.get("workers", 1) != 1:
        continue
    for key in WORK_COUNTERS:
        if key not in was or key not in now:
            continue
        counted += 1
        if now[key] > was[key] * (1 + 1e-9):
            rises.append(f"  {name}: {key} {was[key]:g} -> {now[key]:g}")
if rises:
    failed = True
    print(f"work-counter gate FAILED ({len(rises)} of {counted} counters "
          f"above the committed baseline):", file=sys.stderr)
    print("\n".join(rises), file=sys.stderr)
else:
    print(f"work-counter gate passed: {counted} counters of single-worker "
          f"hot benchmarks at or below the committed baseline")

if not wall_clock:
    print("wall-clock gate skipped (RAV_PERF_GATE=off)")
else:
    regressions, compared = [], 0
    for name, base in sorted(baseline.items()):
        base_ns = base["cpu_ns_per_iter"]
        if name not in current or base_ns <= 0:
            continue
        compared += 1
        now_ns = current[name]["cpu_ns_per_iter"]
        ratio = now_ns / base_ns
        if ratio > ratio_limit:
            regressions.append(f"  {name}: {base_ns:.0f} ns -> "
                               f"{now_ns:.0f} ns ({ratio:.2f}x)")
    if regressions:
        failed = True
        print(f"perf gate FAILED (> {ratio_limit}x on {len(regressions)} of "
              f"{compared} hot benchmarks):", file=sys.stderr)
        print("\n".join(regressions), file=sys.stderr)
        print("override on a noisy machine with RAV_PERF_GATE=off",
              file=sys.stderr)
    else:
        print(f"perf gate passed: {compared} hot benchmarks within "
              f"{ratio_limit}x of the committed baseline")
sys.exit(1 if failed else 0)
EOF
fi

echo "== done: $OUT =="
