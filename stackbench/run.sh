#!/usr/bin/env bash
# One command for a developer: build, run every workload, print every
# metric by name with its unit, check the outputs, and exit non-zero on
# any correctness failure.
#
#   stackbench/run.sh [--seed N] [--smoke] [--repeat 2] [--self-check]
#
# Three passes (one with --smoke) of BENCHMARK.json's `run_seconds` each
# are interleaved across workloads (A B C D A B C D ...) so that a slow
# stretch of the host lands on every workload alike; each metric is the
# median over passes. After the untraced passes, one traced run per
# workload prints the per-layer metrics. `--repeat 2` runs the whole set twice and compares the two
# against the bounds in BENCHMARK.json.
#
# The benchmark contract's command (see BENCHMARK.json) is a single run:
#   cargo run --release --quiet --manifest-path stackbench/Cargo.toml -- \
#       --workload W --seed N --seconds S --trace 0|1
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root"

seed=1 passes=3 repeat=1 smoke="" self_check=""
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --repeat) repeat="$2"; shift 2 ;;
        --smoke) smoke="--smoke"; seconds=0.5; passes=1; shift ;;
        --self-check) self_check=1; shift ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/stackbench"
workloads="port_flap mac_learn burst_sharded scale_20k"
out="$root/.bench_run/results"
rm -rf "$out" && mkdir -p "$out"

if [ -n "$self_check" ]; then
    "$bin" --workload port_flap --seed "$seed" --self-check
    exit
fi

status=0
for set in $(seq 1 "$repeat"); do
    for pass in $(seq 1 "$passes"); do
        for w in $workloads; do
            echo "== set $set pass $pass: $w" >&2
            # shellcheck disable=SC2086
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 $smoke \
                2>"$out/$set-$pass-$w.log" | tail -n 1 >"$out/$set-$pass-$w.json" || status=1
        done
    done
done
for w in $workloads; do
    echo "== traced run: $w" >&2
    # shellcheck disable=SC2086
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 $smoke \
        2>"$out/traced-$w.log" | tail -n 1 >"$out/traced-$w.json" || status=1
done

python3 - "$out" "$repeat" "$passes" "$root/BENCHMARK.json" $workloads <<'EOF' || status=1
import json, statistics, sys
out, repeat, passes, spec = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), json.load(open(sys.argv[4]))
workloads = sys.argv[5:]
ok = True

def load(path):
    global ok
    try:
        r = json.load(open(path))
    except ValueError:
        print(f"FAIL  {path}: no result line (see the .log next to it)")
        ok = False
        return None
    if not r["correct"] or r["failed"]:
        print(f"FAIL  {path}: correct={r['correct']} failed={r['failed']}/{r['attempted']}")
        ok = False
    return r

def spread(vs):
    return (max(vs) - min(vs)) / statistics.median(vs) if statistics.median(vs) else 0.0

sets = []
for s in range(1, repeat + 1):
    med = {}
    print(f"\n=== end-to-end metrics, set {s}: median over {passes} pass(es), (max-min)/median in brackets")
    for w in workloads:
        runs = [r for r in (load(f"{out}/{s}-{k}-{w}.json") for k in range(1, passes + 1)) if r]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{w}: attempted {attempted}, failed {failed}, failed_ratio {failed / max(attempted, 1):.6f}")
        for m in spec["end_to_end"]:
            vs = [r["metrics"][m["name"]]["value"] for r in runs]
            if not vs:
                continue
            med[(w, m["name"])] = statistics.median(vs)
            print(f"  {m['name']:<18} {statistics.median(vs):14.3f} {m['unit']:<4} [{spread(vs):.3f}]")
    sets.append(med)

print("\n=== per-layer metrics (one traced run)")
for w in workloads:
    r = load(f"{out}/traced-{w}.json")
    if not r:
        continue
    print(f"{w}:")
    for name, v in r["metrics"].items():
        print(f"  {name:<30} {v['value']:16.3f} {v['unit']}")

if repeat >= 2:
    print("\n=== repeatability: set 1 vs set 2 against each metric's bound")
    for w in workloads:
        for m in spec["end_to_end"]:
            a, b = sets[0].get((w, m["name"])), sets[1].get((w, m["name"]))
            if a is None or b is None:
                continue
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "PASS" if abs(worse) <= m["bound"] else "FAIL"
            ok &= verdict == "PASS"
            print(f"  {w:<14} {m['name']:<18} {a:14.3f} {b:14.3f} {worse:+7.3f} bound {m['bound']:.2f} {verdict}")

sys.exit(0 if ok else 1)
EOF

echo "per-run logs and result lines: $out; traces: $root/.bench_run/trace-*.json" >&2
exit $status
