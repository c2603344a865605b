//! E1 (Fig. 3): "the growth of OVN's controller codebase and the number
//! of OpenFlow fragments over time."
//!
//! We cannot re-measure OVN's git history, so we regenerate the
//! *phenomenon*: as features accumulate in a conventional
//! fragment-oriented controller, the scattered OpenFlow fragments (and
//! the code sites emitting them) grow hand in hand — while the unified
//! approach only adds a handful of declarative rules per feature, and its
//! rule count does not depend on network size at all.
//!
//! The second half makes the incrementality claim checkable: the same
//! small change is applied to models 10× apart in size, with the
//! engine's incrementality audit armed (every commit asserts work is
//! O(|input delta| + |output delta|)), and the measured tuples/commit
//! must stay flat as the network grows. `--out FILE` writes the
//! measurements as a `BENCH_*.json` report, whose reachability entries
//! carry the churn-scaling wall budget `compare` enforces; `--quick`
//! shrinks the Robotron commit counts for CI smoke runs.

use std::time::Instant;

use baselines::ofgen::{all_features, growth_series, FlowProgram, NetModel};
use bench::{print_table, BenchEntry, RobotronScale};
use ddlog::{AuditConfig, Value};

/// Time to regenerate the whole OpenFlow program from the first `k`
/// features (the fragment controller's compile burden): the best of a
/// few runs, in microseconds.
fn emit_us(net: &NetModel, k: usize) -> u64 {
    let features = all_features();
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut prog = FlowProgram::default();
            for f in &features[..k] {
                f.emit(net, &mut prog);
            }
            std::hint::black_box(prog.flows.len());
            t.elapsed().as_micros() as u64
        })
        .min()
        .unwrap_or(0)
}

struct ChurnMeasure {
    median_ns: u64,
    tuples_per_commit: u64,
}

/// Flap one interface's speed back and forth, one commit per flap, with
/// the audit armed. Work per commit must not depend on `scale`.
fn measure_robotron_churn(scale: RobotronScale, commits: usize) -> ChurnMeasure {
    let mut engine = bench::robotron_engine(scale, 11);
    engine.set_audit(Some(AuditConfig::default()));
    let mut ns = Vec::with_capacity(commits);
    let mut tuples = Vec::with_capacity(commits);
    for c in 0..commits {
        let (old, new) = if c % 2 == 0 { (100, 101) } else { (101, 100) };
        let mut txn = ddlog::Transaction::new();
        txn.delete(
            "Interface",
            vec![Value::Int(0), Value::Int(0), Value::Int(old)],
        );
        txn.insert(
            "Interface",
            vec![Value::Int(0), Value::Int(0), Value::Int(new)],
        );
        let t = Instant::now();
        let (_, profile) = engine.commit_profiled(txn).expect("audited churn commit");
        ns.push(t.elapsed().as_nanos() as u64);
        tuples.push(profile.total_tuples());
    }
    ChurnMeasure {
        median_ns: bench::median(&ns),
        tuples_per_commit: bench::median(&tuples),
    }
}

/// Attach and detach a leaf node on the labeled root of a reachability
/// graph, one commit per change: each insert derives exactly one new
/// label through the recursive stratum, each delete retracts it via
/// delete–re-derive. The affected delta is O(1), so the measured work
/// must not scale with graph size. DRed may legitimately touch more
/// than the net output delta (alternative derivation paths), hence the
/// generous budget.
fn measure_reachability_churn(n: u64, m: u64, commits: usize) -> ChurnMeasure {
    let mut engine = bench::reachability_engine(n, m, 5);
    engine.set_audit(Some(AuditConfig {
        ratio: 64,
        slack: 4096,
    }));
    let leaf = (n + 10) as i128;
    let mut ns = Vec::with_capacity(commits);
    let mut tuples = Vec::with_capacity(commits);
    for c in 0..commits {
        let mut txn = ddlog::Transaction::new();
        let row = vec![Value::Int(0), Value::Int(leaf)];
        if c % 2 == 0 {
            txn.insert("Edge", row);
        } else {
            txn.delete("Edge", row);
        }
        let t = Instant::now();
        let (_, profile) = engine.commit_profiled(txn).expect("audited churn commit");
        ns.push(t.elapsed().as_nanos() as u64);
        tuples.push(profile.total_tuples());
    }
    ChurnMeasure {
        median_ns: bench::median(&ns),
        tuples_per_commit: bench::median(&tuples),
    }
}

/// Wall/op of `large` vs `small`, with a 1µs floor on the denominator so
/// sub-microsecond noise can't manufacture a huge ratio.
fn wall_ratio(large: &ChurnMeasure, small: &ChurnMeasure) -> f64 {
    large.median_ns as f64 / (small.median_ns as f64).max(1_000.0)
}

/// The churn-scaling cliff gate: wall/op at each larger scale must stay
/// within `MAX_WALL_RATIO` of the smallest scale. Before the
/// arrangement-backed evaluator this ratio was ~10x at n=2000 (see
/// EXPERIMENTS.md).
const MAX_WALL_RATIO: f64 = 2.0;

/// Reachability churn commits, in every mode: each costs microseconds
/// next to the preload, and a 20-commit median is noisy enough for
/// warm-up effects to eat most of the 2x wall budget.
const REACHABILITY_COMMITS: usize = 200;

fn main() {
    let mut out: Option<String> = None;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = args.next(),
            "--quick" => quick = true,
            other => {
                eprintln!("usage: report_fig3 [--out FILE] [--quick] (got {other:?})");
                std::process::exit(2);
            }
        }
    }

    println!("E1 / Fig. 3: fragment growth vs unified rules");
    for n in [64u16, 256] {
        let net = NetModel::sized(n);
        let series = growth_series(&net);
        let rows: Vec<Vec<String>> = series
            .iter()
            .map(|p| {
                vec![
                    p.features.to_string(),
                    p.fragments.to_string(),
                    p.sites.to_string(),
                    p.ddlog_rules.to_string(),
                    emit_us(&net, p.features).to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("feature growth over a {n}-port network"),
            &[
                "features",
                "of_fragments",
                "fragment_sites",
                "ddlog_rules",
                "regen_us",
            ],
            &rows,
        );
    }
    println!(
        "\nshape check (paper Fig. 3): fragments and controller sites grow together \
         with features; the unified rule count stays small and is independent of \
         network size."
    );

    // ---- incrementality at scale (audited) ---------------------------------
    let commits = if quick { 20 } else { 200 };
    let small = RobotronScale {
        devices: 100,
        ifaces_per_device: 8,
    };
    let large = RobotronScale {
        devices: 1000,
        ifaces_per_device: 8,
    };
    let rob_small = measure_robotron_churn(small, commits);
    let rob_large = measure_robotron_churn(large, commits);
    let reach_small = measure_reachability_churn(200, 600, REACHABILITY_COMMITS);
    let reach_large = measure_reachability_churn(2000, 6000, REACHABILITY_COMMITS);
    let reach_xl = measure_reachability_churn(20000, 60000, REACHABILITY_COMMITS);

    print_table(
        &format!(
            "audited churn: work per commit vs model size \
             ({commits} Robotron / {REACHABILITY_COMMITS} reachability commits each)"
        ),
        &["workload", "tuples/commit", "median_us"],
        &[
            vec![
                "robotron devices=100".into(),
                rob_small.tuples_per_commit.to_string(),
                format!("{:.1}", rob_small.median_ns as f64 / 1e3),
            ],
            vec![
                "robotron devices=1000 (10x)".into(),
                rob_large.tuples_per_commit.to_string(),
                format!("{:.1}", rob_large.median_ns as f64 / 1e3),
            ],
            vec![
                "reachability n=200".into(),
                reach_small.tuples_per_commit.to_string(),
                format!("{:.1}", reach_small.median_ns as f64 / 1e3),
            ],
            vec![
                "reachability n=2000 (10x)".into(),
                reach_large.tuples_per_commit.to_string(),
                format!("{:.1}", reach_large.median_ns as f64 / 1e3),
            ],
            vec![
                "reachability n=20000 (100x)".into(),
                reach_xl.tuples_per_commit.to_string(),
                format!("{:.1}", reach_xl.median_ns as f64 / 1e3),
            ],
        ],
    );
    // The audit already asserted per-commit budgets; this pins the
    // scaling claim itself: 10× the network must not mean 10× the work.
    assert!(
        rob_large.tuples_per_commit <= 2 * rob_small.tuples_per_commit.max(1),
        "robotron tuples/commit grew with model size: {} -> {}",
        rob_small.tuples_per_commit,
        rob_large.tuples_per_commit
    );
    assert!(
        reach_large.tuples_per_commit <= 2 * reach_small.tuples_per_commit.max(1),
        "reachability tuples/commit grew with graph size: {} -> {}",
        reach_small.tuples_per_commit,
        reach_large.tuples_per_commit
    );
    assert!(
        reach_xl.tuples_per_commit <= 2 * reach_small.tuples_per_commit.max(1),
        "reachability tuples/commit grew with graph size: {} -> {}",
        reach_small.tuples_per_commit,
        reach_xl.tuples_per_commit
    );
    // Tuples/commit being flat is necessary but not sufficient: an
    // evaluator can process few tuples yet still pay wall time per
    // commit proportional to total state (e.g. scanning a relation to
    // answer a keyed lookup). Pin the wall-time shape too.
    for (label, m) in [("n=2000", &reach_large), ("n=20000", &reach_xl)] {
        let ratio = wall_ratio(m, &reach_small);
        assert!(
            ratio <= MAX_WALL_RATIO,
            "reachability churn wall/op at {label} is {ratio:.2}x of n=200 \
             (budget {MAX_WALL_RATIO:.2}x): per-commit cost scales with total state"
        );
    }
    println!(
        "\nincrementality check: every commit passed the work audit; tuples/commit \
         and wall/op stayed flat from n=200 to n=20000 (100x)."
    );

    if let Some(path) = out {
        let entries = vec![
            BenchEntry::new(
                "fig3/robotron_churn/devices=100",
                rob_small.median_ns,
                rob_small.tuples_per_commit,
            ),
            BenchEntry::new(
                "fig3/robotron_churn/devices=1000",
                rob_large.median_ns,
                rob_large.tuples_per_commit,
            ),
            BenchEntry::new(
                "fig3/reachability_churn/n=200",
                reach_small.median_ns,
                reach_small.tuples_per_commit,
            ),
            BenchEntry::new(
                "fig3/reachability_churn/n=2000",
                reach_large.median_ns,
                reach_large.tuples_per_commit,
            )
            .with_wall_budget("fig3/reachability_churn/n=200", MAX_WALL_RATIO),
            BenchEntry::new(
                "fig3/reachability_churn/n=20000",
                reach_xl.median_ns,
                reach_xl.tuples_per_commit,
            )
            .with_wall_budget("fig3/reachability_churn/n=200", MAX_WALL_RATIO),
        ];
        bench::write_bench_json(&path, "fig3", &entries).expect("write bench json");
        println!("wrote {path}");
    }
    bench::dump_metrics_snapshot();
}
