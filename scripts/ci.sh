#!/usr/bin/env bash
# The repo's CI gate, runnable locally: build, tests, formatting, lints,
# and an oracle smoke run (differential fuzz of the incremental pipeline
# against the full-recompute baseline, fault-free and under chaos).
set -euo pipefail
cd "$(dirname "$0")/.."

# Nothing below may change what git sees under stackbench/ (a build that
# rewrites its frozen Cargo.lock, say): taken before the first build,
# compared after the last stage.
stackbench_before=$(git status --porcelain -- stackbench)

cargo build --release
cargo test -q
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc: a deleted or private item that a doc link still names fails
# here. `--lib` because the `nerpa` binary and the `nerpa` library
# would otherwise write the same doc files.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

# Telemetry: the equivalence suite and the cross-plane e2e test run
# with debug logging wide open (every per-op event prints), and
# the e2e test scrapes the live introspection endpoint over HTTP,
# failing on malformed Prometheus exposition.
NERPA_LOG=debug cargo test -q --test equivalence
NERPA_LOG=debug cargo test -q --test telemetry_e2e

# Oracle smoke: 8 seeds fault-free, then the same seeds with a chaos
# schedule injecting management-link outages and switch restarts.
cargo run --release -q -p oracle --bin oracle -- --seed 1..8 --steps 200
cargo run --release -q -p oracle --bin oracle -- --seed 1..8 --steps 200 --chaos 7

# Durability: crash-recovery e2e (torn WAL tail, server restart, epoch
# reset, controller reconvergence), then an oracle sweep that kills the
# durable OVSDB server mid-WAL-write and checks crash-equivalence — the
# recovered state must equal the pre-crash committed prefix.
cargo test -q --test durability_e2e
cargo run --release -q -p oracle --bin oracle -- --seed 1..8 --steps 200 --chaos-crash 7

# Sharded control plane: the sockets e2e (kill one shard's switch, the
# others keep committing), then the cross-shard equivalence oracle —
# union of 4 shard engines vs one unsharded engine vs the
# full-recompute spec, fault-free, with chaos faults targeted at a
# single shard, and with durable-server crashes on top (the one harness
# runs every fault mode at every shard count).
cargo test -q --test shard_e2e
cargo run --release -q -p oracle --bin oracle -- --seed 1..8 --steps 200 --shards 4
cargo run --release -q -p oracle --bin oracle -- --seed 1..8 --steps 200 --chaos 7 --shards 4
cargo run --release -q -p oracle --bin oracle -- --seed 1..8 --steps 200 --chaos-crash 7 --shards 4

# Flight recorder: the black-box e2e (an oracle failure must ship a
# causally ordered .nfr dump; convergence lag is recorded under chaos
# reconnects), then a seeded chaos oracle run armed with --flight-dir:
# it must leave a .nfr dump that `nerpa flight` parses back into a
# timeline containing the injected chaos faults and the reconciles of
# the restarted switches (a log line is an event, so the dump holds what
# stderr shows), and from which it derives the span tree of a commit
# the dump holds.
cargo test -q --test flight_e2e
rm -rf target/flight-ci
cargo build --release -q --bin nerpa
cargo run --release -q -p oracle --bin oracle -- \
    --seed 1..4 --steps 200 --chaos 7 --flight-dir target/flight-ci
dump=$(ls target/flight-ci/*.nfr | head -n 1)
test -n "$dump"
target/release/nerpa flight show --json "$dump" >target/flight-ci/timeline.json
grep -q '"kind":"chaos.fault"' target/flight-ci/timeline.json
grep -q '"kind":"controller.reconcile"' target/flight-ci/timeline.json
trace=$(grep -o '"kind":"ddlog.apply","trace":[1-9][0-9]*' "$dump" | tail -n 1 | grep -o '[0-9]*$')
test -n "$trace"
target/release/nerpa flight show --trace "$trace" "$dump" >target/flight-ci/trace.txt
grep -q 'stack.change' target/flight-ci/trace.txt
echo "flight-recorder: OK ($dump replays the injected faults and trace $trace)"

# Provenance: the why/why-not e2e (every installed P4 entry and mcast
# member on a live snvs stack — built with the default constructor,
# nothing armed — resolves to a base-rooted derivation tree; retraction
# takes the derivations with it; query cost at 2 000 ports is bounded
# by counts), then `nerpa why` against its built-in demo stack —
# exit 0 means every entry explained and the search's derivation counts
# equal the evaluator's. (The oracle smokes above answer from the same
# search: the harness dumps the first diverging tuple's derivation on
# failure.)
cargo test -q --test why_e2e
cargo run --release -q --bin nerpa -- why demo >/dev/null
echo "provenance: OK (nerpa why demo explains every installed entry)"

# Overload robustness: the e2e suite (watchdog supersede + replace +
# reconcile against a fault-free reference; slow-monitor eviction with
# streamed-view/reconnect-snapshot equivalence; the full --chaos-stall
# oracle), then an oracle sweep that freezes a live switch connection
# mid-churn and wedges a slow OVSDB monitor on every seed — each run
# must converge to the fault-free state with queue depths inside their
# caps, at least one watchdog restart, and the slow monitor evicted.
cargo test -q -p oracle --test overload_e2e
cargo test -q -p shard --test coalesce_props
cargo run --release -q -p oracle --bin oracle -- \
    --seed 1..4 --steps 150 --chaos-stall 7
echo "overload: OK (stall + slow consumer survived on every seed)"

# Bench smoke: regenerate the paper experiments in --quick mode (the
# incrementality audit is armed inside report_fig3) and gate the
# deterministic tuples-per-commit measurements against the checked-in
# baselines. Wall time is reported but not enforced — tuple counts are
# machine-independent, nanoseconds are not — except for same-process
# wall ratios: BENCH_fig3's reachability churn at n=2000 and n=20000
# must stay within 2x of n=200 (the churn-scaling cliff gate).
scripts/bench.sh --quick
cargo run --release -q -p bench --bin compare -- \
    crates/bench/baselines/BENCH_fig3.json BENCH_fig3.json
cargo run --release -q -p bench --bin compare -- \
    crates/bench/baselines/BENCH_port_scaling.json BENCH_port_scaling.json
cargo run --release -q -p bench --bin compare -- \
    crates/bench/baselines/BENCH_shard_scaling.json BENCH_shard_scaling.json
# The recorder report's wall budget (recorder-on ≤ 1.05x recorder-off,
# measured in one process) is enforced by compare even without
# --enforce-time — it is the always-on flight recorder's overhead gate.
cargo run --release -q -p bench --bin compare -- \
    crates/bench/baselines/BENCH_recorder.json BENCH_recorder.json
# Overload: sustained churn with one switch frozen must stay within
# 2.5x of healthy wall (same process), fan-out with one slow monitor
# within 3x, and the wedged subscriber costs exactly one eviction.
cargo run --release -q -p bench --bin compare -- \
    crates/bench/baselines/BENCH_overload.json BENCH_overload.json
# WAL: log bytes per committed transaction are deterministic and gated;
# the per-policy wall times stay informational. Replaying one record
# over a 20 000-row table must cost ≤ 1.5x what it costs over 2 000
# rows (same process): a record is the commit's rows, not its `where`.
# Likewise an in-memory one-row `["id","==",n]` transact at 20 000 rows
# must cost ≤ 1.5x its cost at 2 000 (transact/rows_20000 vs
# transact/rows_2000), and the rows it examines (1, answered from the
# `id` index) are gated like the log bytes.
cargo run --release -q -p bench --bin compare -- \
    crates/bench/baselines/BENCH_wal.json BENCH_wal.json

# stackbench smoke, as a *correctness* stage: the standalone benchmark
# package is outside the workspace, so nothing above builds it — an API
# break in the crates it calls would otherwise be found by whoever
# benchmarks next. Half a second per workload; run.sh exits non-zero
# unless every workload reports `correct: true` and `failed == 0`.
# Timings are ignored here.
stackbench/run.sh --smoke >/dev/null
echo "stackbench: OK (every workload correct, nothing failed)"

# stackbench's own unit tests: its `Tap` settle tests are the only tests
# of the `DataPlane` surface as the benchmark implements it. `--locked`
# fails instead of rewriting stackbench/Cargo.lock, and the whole gate
# (run.sh's unlocked build above included) must leave stackbench/ as it
# found it.
cargo test -q --locked --manifest-path stackbench/Cargo.toml
test "$(git status --porcelain -- stackbench)" = "$stackbench_before"
echo "stackbench unit tests: OK"
