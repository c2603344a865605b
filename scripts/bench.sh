#!/usr/bin/env bash
# Bench-regression harness: regenerate the paper experiments and write
# their measurements as machine-readable BENCH_*.json reports in the
# repo root. Pass --quick for the CI smoke variant (same entry names,
# fewer commits/ports, ~seconds instead of minutes).
#
#   scripts/bench.sh             # full runs -> BENCH_fig3.json, BENCH_port_scaling.json, ...
#   scripts/bench.sh --quick     # CI smoke
#
# Gate a change against the checked-in baselines with:
#
#   cargo run --release -q -p bench --bin compare -- \
#       crates/bench/baselines/BENCH_fig3.json BENCH_fig3.json
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=()
for arg in "$@"; do
    case "$arg" in
    --quick) QUICK=(--quick) ;;
    *)
        echo "usage: scripts/bench.sh [--quick]" >&2
        exit 2
        ;;
    esac
done

cargo build --release -q -p bench

cargo run --release -q -p bench --bin report_fig3 -- \
    --out BENCH_fig3.json "${QUICK[@]}"
cargo run --release -q -p bench --bin report_port_scaling -- \
    --out BENCH_port_scaling.json "${QUICK[@]}"
cargo run --release -q -p bench --bin report_wal -- \
    --out BENCH_wal.json "${QUICK[@]}"
cargo run --release -q -p bench --bin report_shard_scaling -- \
    --out BENCH_shard_scaling.json "${QUICK[@]}"
cargo run --release -q -p bench --bin report_recorder_overhead -- \
    --out BENCH_recorder.json "${QUICK[@]}"
cargo run --release -q -p bench --bin report_overload -- \
    --out BENCH_overload.json "${QUICK[@]}"
# Size is a tracked number too: per-crate src/tests LOC of this checkout.
cargo run --release -q -p bench --bin report_loc -- --out BENCH_loc.json >/dev/null

echo
echo "bench reports written: BENCH_fig3.json BENCH_port_scaling.json BENCH_wal.json BENCH_shard_scaling.json BENCH_recorder.json BENCH_overload.json BENCH_loc.json"
