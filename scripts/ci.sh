#!/usr/bin/env bash
# Offline CI gate: format, lint, build, tests, property tests, and the
# end-to-end benchmark's correctness check. No network access required —
# the workspace has no external dependencies.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

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
cargo test -q --offline -p xsb-obs --features proptest
$WATCHDOG cargo test -q --offline -p xsb-server --features proptest

echo "== xsbench unit tests (reply models, stats, workload generators)"
$WATCHDOG cargo test -q --offline --manifest-path xsbench/Cargo.toml

echo "== xsbench --check (BENCHMARK.json: every workload end to end, replies verified)"
# its own package and target directory; it serves over real sockets, so
# it sits under the watchdog like the server suite
$WATCHDOG cargo run --release --offline --quiet \
    --manifest-path xsbench/Cargo.toml -- --check

echo "CI OK"
