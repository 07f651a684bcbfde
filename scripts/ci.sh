#!/usr/bin/env bash
# Offline CI gate: format, lint, build, test, bench smoke runs that leave
# machine-readable artifacts, and a bench-regression gate against the
# committed BENCH_BASELINE.json. No network access required — the
# workspace has no external dependencies.
#
# Usage: scripts/ci.sh [--quick]
#   --quick            skip every bench run (smoke artifacts + regression
#                      gate); fmt, clippy, build, and tests still run
#   CI_ARTIFACT_DIR    where JSON artifacts land (default target/ci)
#   CI_BENCH_TOLERANCE base gate tolerance in percent (default 20)
set -euo pipefail
cd "$(dirname "$0")/.."

ARTIFACT_DIR="${CI_ARTIFACT_DIR:-target/ci}"
BENCH_TOLERANCE="${CI_BENCH_TOLERANCE:-20}"
QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "unknown flag: $arg (usage: scripts/ci.sh [--quick])" >&2; exit 2 ;;
    esac
done
mkdir -p "$ARTIFACT_DIR"

HAVE_PYTHON3=0
command -v python3 >/dev/null 2>&1 && HAVE_PYTHON3=1

# validate_json FILE [PATTERN] — structural check on a JSON artifact.
# With python3 it is a full parse; without, every call degrades the same
# way: a grep for PATTERN (default: the schema marker every harness
# report carries). Content-level assertions are separately python3-gated.
validate_json() {
    local file="$1" pattern="${2:-\"schema\"}"
    if [ "$HAVE_PYTHON3" = 1 ]; then
        python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$file"
    else
        grep -q "$pattern" "$file"
    fi
    echo "validated JSON: $file"
}

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release"
cargo build --release --workspace --offline

echo "== pool/shared concurrency tests under watchdog"
# a claim/wait bug shows up as a hang, not a failure: run the racing test
# binaries under a hard timeout first, so a deadlock is a loud CI failure
# instead of a stuck job (falls back to unguarded runs without coreutils)
WATCHDOG=""
command -v timeout >/dev/null 2>&1 && WATCHDOG="timeout -k 15 180"
$WATCHDOG cargo test -q --offline -p xsb-core --test shared_tables
$WATCHDOG cargo test -q --offline -p xsb-core --lib engine_pool
$WATCHDOG cargo test -q --offline -p xsb-core --lib shared

echo "== durability crash matrix under watchdog"
# the crash matrix kills the WAL at every byte offset and recovers; a
# recovery livelock would hang, so it also runs under the hard timeout
$WATCHDOG cargo test -q --offline -p xsb-core --test durability

echo "== network server tests under watchdog"
# a pipelining or backpressure bug in the TCP front-end shows up as a
# reader/writer thread waiting forever on a frame that never comes, so
# the whole server suite (wire round-trips, integration, hostile-input
# barrage) runs under the same hard timeout
$WATCHDOG cargo test -q --offline -p xsb-server

echo "== cargo test -q"
cargo test -q --workspace --offline

echo "== cargo test --features proptest (deterministic property tests)"
cargo test -q --offline --features proptest
cargo test -q --offline -p xsb-core --features proptest
$WATCHDOG cargo test -q --offline -p xsb-server --features proptest

if [ "$QUICK" = 1 ]; then
    echo "== bench runs skipped (--quick)"
    echo "CI OK (quick)"
    exit 0
fi

echo "== bench smoke run (JSON artifact)"
cargo run --release --offline -p xsb-bench --bin harness -- \
    fig2 --quick --json "$ARTIFACT_DIR/bench.json"
validate_json "$ARTIFACT_DIR/bench.json"

echo "== serving smoke run (table lifetime counters)"
cargo run --release --offline -p xsb-bench --bin harness -- \
    serving --quick --json "$ARTIFACT_DIR/serving.json"
validate_json "$ARTIFACT_DIR/serving.json" '"serving"'
if [ "$HAVE_PYTHON3" = 1 ]; then
python3 - "$ARTIFACT_DIR/serving.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))["serving"]
print("table lifetime: hits=%d misses=%d invalidations=%d evictions=%d "
      "warm_speedup=%.1fx"
      % (s["table_hits"], s["table_misses"], s["table_invalidations"],
         s["table_evictions"], s["warm_speedup"]))
assert s["table_hits"] > 0 and s["table_invalidations"] > 0 \
    and s["table_evictions"] > 0, "serving counters did not move"
PY
fi

echo "== concurrent smoke run (E15: shared-table engine pool)"
cargo run --release --offline -p xsb-bench --bin harness -- \
    concurrent --quick --json "$ARTIFACT_DIR/concurrent.json"
validate_json "$ARTIFACT_DIR/concurrent.json" '"concurrent"'
if [ "$HAVE_PYTHON3" = 1 ]; then
python3 - "$ARTIFACT_DIR/concurrent.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))["concurrent"]
last = c["rows"][-1]
print("pool @%d workers: cold_qps=%.0f dup_computes=%d warm_qps=%.0f "
      "shared_hits=%d publishes=%d invalidations=%d shared_speedup=%.1fx"
      % (last["workers"], last["cold_qps"], last["cold_dup_computes"],
         last["warm_qps"], last["shared_hits"], last["shared_publishes"],
         last["shared_invalidations"], c["shared_speedup"]))
assert last["shared_hits"] > 0, "no worker imported a shared table"
assert last["shared_publishes"] > 0, "no worker published a table"
assert last["shared_invalidations"] > 0, "churn did not invalidate"
assert last["cold_dup_computes"] == 0, (
    "claim/wait let %d duplicated cold computes through"
    % last["cold_dup_computes"])
# the contended cold phase already amortizes one compute over N served
# queries, so warm/cold sits well under the old detached-cold ratio; the
# hard dedup guarantee is the cold_dup_computes == 0 assert above
assert c["shared_speedup"] >= 1.2, (
    "warm serving did not beat contended cold: %.2f" % c["shared_speedup"])
PY
fi

echo "== emulator perf smoke (E16: fused superinstructions vs plain dispatch)"
cargo run --release --offline -p xsb-bench --bin harness -- \
    emulator --quick --json "$ARTIFACT_DIR/emulator.json"
validate_json "$ARTIFACT_DIR/emulator.json" '"emulator"'
if [ "$HAVE_PYTHON3" = 1 ]; then
python3 - "$ARTIFACT_DIR/emulator.json" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))["emulator"]
print("%-10s %12s %12s %14s %14s" % (
    "workload", "before ips", "after ips", "before (ns)", "after (ns)"))
for r in rows:
    print("%-10s %12.0f %12.0f %14d %14d" % (
        r["workload"], r["unfused_instructions_per_sec"],
        r["instructions_per_sec"], r["unfused_query_time_ns"],
        r["query_time_ns"]))
    # instruction counts are deterministic (wall times are not): fusion
    # must retire the same work in strictly fewer dispatches
    assert r["fused_instructions"] < r["work_instructions"], (
        "%s: fusion did not reduce dispatches (%d vs %d)"
        % (r["workload"], r["fused_instructions"], r["work_instructions"]))
    assert r["instructions_per_sec"] > 0, "%s: zero throughput" % r["workload"]
PY
fi

echo "== durability smoke run (E17: group commit, recovery, checkpoint)"
cargo run --release --offline -p xsb-bench --bin harness -- \
    durability --quick --json "$ARTIFACT_DIR/durability.json"
validate_json "$ARTIFACT_DIR/durability.json" '"durability"'
if [ "$HAVE_PYTHON3" = 1 ]; then
python3 - "$ARTIFACT_DIR/durability.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))["durability"]
for w in d["windows"]:
    print("window=%-6dus commits=%d qps=%.0f fsyncs=%d p50=%dns p99=%dns"
          % (w["window_us"], w["commits"], w["commit_qps"], w["fsyncs"],
             w["commit_p50_ns"], w["commit_p99_ns"]))
for r in d["recovery"]:
    print("facts=%-6d log=%-8dB recovery=%.2fms replayed=%d"
          % (r["facts"], r["log_bytes"], r["recovery_ms"], r["replayed"]))
assert d["recovery_torn_facts"] == 0, (
    "%d torn facts survived recovery" % d["recovery_torn_facts"])
assert d["commit_qps"] > 0, "zero commit throughput"
assert d["checkpoint_bytes_after"] < d["checkpoint_bytes_before"], (
    "checkpoint did not truncate the log (%d -> %d)"
    % (d["checkpoint_bytes_before"], d["checkpoint_bytes_after"]))
# each recovery replays program + every committed assert exactly once
for r in d["recovery"]:
    assert r["replayed"] == r["facts"] + 1, (
        "recovery replayed %d records for %d facts" % (r["replayed"], r["facts"]))
PY
fi

echo "== network serving smoke run (E18: closed-loop load over TCP)"
# a stuck connection or a protocol error under load would hang the bench
# rather than fail it, so the smoke run sits under the watchdog too
$WATCHDOG cargo run --release --offline -p xsb-bench --bin harness -- \
    serving_net --quick --json "$ARTIFACT_DIR/serving_net.json"
validate_json "$ARTIFACT_DIR/serving_net.json" '"serving_net"'
if [ "$HAVE_PYTHON3" = 1 ]; then
python3 - "$ARTIFACT_DIR/serving_net.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))["serving_net"]
for r in s["rows"]:
    print("conns=%-3d depth=%-3d requests=%-5d qps=%.0f p50=%dns p99=%dns "
          "busy=%d errors=%d"
          % (r["connections"], r["depth"], r["requests"], r["qps"],
             r["p50_ns"], r["p99_ns"], r["busy"], r["errors"]))
print("overload rejection_rate=%.2f stuck=%d protocol_errors=%d"
      % (s["rejection_rate"], s["stuck_connections"], s["protocol_errors"]))
assert s["stuck_connections"] == 0, (
    "%d connections stuck at shutdown" % s["stuck_connections"])
assert s["protocol_errors"] == 0, (
    "%d protocol errors from well-formed clients" % s["protocol_errors"])
assert s["rejection_rate"] > 0, "overload burst was never shed with Busy"
assert s["qps"] > 0, "zero serving throughput"
assert all(r["busy"] == 0 and r["errors"] == 0 for r in s["rows"]), (
    "closed-loop sweep saw Busy or engine errors")
PY
fi

echo "== xsbench --check (BENCHMARK.json: every workload end to end, replies verified)"
# its own package and target directory; it serves over real sockets, so
# it sits under the watchdog like E18
$WATCHDOG cargo run --release --offline --quiet \
    --manifest-path xsbench/Cargo.toml -- --check

echo "== traced query run (Chrome trace-event export + opcode profile)"
cargo run --release --offline -p xsb-bench --bin harness -- \
    trace --json "$ARTIFACT_DIR/trace.json"
validate_json "$ARTIFACT_DIR/trace.json" '"traceEvents"'
if [ "$HAVE_PYTHON3" = 1 ]; then
python3 - "$ARTIFACT_DIR/trace.json" <<'PY'
import json, sys
t = json.load(open(sys.argv[1]))
ev = t["traceEvents"]
assert ev, "traced query produced no spans"
assert all(e["ph"] == "X" and "ts" in e and "dur" in e for e in ev), (
    "malformed trace event")
names = {e["name"] for e in ev}
assert "query" in names, "no query span: %s" % sorted(names)
assert any(n.startswith("subgoal") for n in names), (
    "no subgoal span: %s" % sorted(names))
prof = t["profile"]
assert prof["opcodes"], "set_profiling(on) recorded no opcodes"
print("trace: %d spans (%s); profile: %d dispatches, hottest %s"
      % (len(ev), ", ".join(sorted(names)[:4]), prof["total"],
         prof["opcodes"][0]["op"]))
PY
fi

echo "== bench-regression gate (vs BENCH_BASELINE.json, tolerance ${BENCH_TOLERANCE}%)"
# the committed baseline was produced by this same invocation, so the two
# reports are parameter-for-parameter comparable
cargo run --release --offline -p xsb-bench --bin harness -- \
    baseline --quick --json "$ARTIFACT_DIR/bench_current.json" >/dev/null
validate_json "$ARTIFACT_DIR/bench_current.json"
cargo run --release --offline -p xsb-bench --bin bench_gate -- \
    BENCH_BASELINE.json "$ARTIFACT_DIR/bench_current.json" \
    --tolerance "$BENCH_TOLERANCE"

echo "== bench gate self-test (a doctored baseline must fail the gate)"
# inflate one tracked metric in a baseline copy so the real run looks
# like a massive regression; the gate must catch it
sed -E 's/"shared_speedup":[0-9.eE+-]+/"shared_speedup":1000000/' \
    BENCH_BASELINE.json > "$ARTIFACT_DIR/doctored_baseline.json"
if cargo run --release --offline -p xsb-bench --bin bench_gate -- \
    "$ARTIFACT_DIR/doctored_baseline.json" "$ARTIFACT_DIR/bench_current.json" \
    --tolerance "$BENCH_TOLERANCE" >/dev/null; then
    echo "gate self-test FAILED: a known regression passed the gate" >&2
    exit 1
else
    echo "gate self-test OK: the doctored baseline was rejected"
fi

echo "CI OK"
