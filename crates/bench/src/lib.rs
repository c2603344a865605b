//! Shared workload generators and reporting helpers for the experiment
//! harness. Each experiment (E1–E8, see DESIGN.md) has a report binary
//! in `src/bin/`.
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub use telemetry::dump_metrics_snapshot;

/// The paper's introductory reachability-labeling program (§1).
pub const REACHABILITY_PROGRAM: &str = "
input relation GivenLabel(n: bigint, l: bigint)
input relation Edge(a: bigint, b: bigint)
output relation Label(n: bigint, l: bigint)
Label(n, l) :- GivenLabel(n, l).
Label(b, l) :- Label(a, l), Edge(a, b).
";

/// A deterministic random digraph: `m` edges over `n` nodes.
pub fn random_graph(n: u64, m: u64, seed: u64) -> Vec<(i128, i128)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let a = rng.random_range(0..n) as i128;
        let b = rng.random_range(0..n) as i128;
        edges.push((a, b));
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Build a reachability engine preloaded with a random graph and one
/// labeled root.
pub fn reachability_engine(n: u64, m: u64, seed: u64) -> ddlog::Engine {
    let mut engine = ddlog::Engine::from_source(REACHABILITY_PROGRAM).expect("program");
    let mut txn = ddlog::Transaction::new();
    txn.insert(
        "GivenLabel",
        vec![ddlog::Value::Int(0), ddlog::Value::Int(1)],
    );
    for (a, b) in random_graph(n, m, seed) {
        txn.insert("Edge", vec![ddlog::Value::Int(a), ddlog::Value::Int(b)]);
    }
    engine.commit(txn).expect("preload");
    engine
}

/// The Robotron-style network model (§2.1): devices, interfaces, links,
/// and BGP policies, from which per-device configs are derived.
pub const ROBOTRON_PROGRAM: &str = "
input relation Device(dev: bigint, role: string, pod: bigint)
input relation Interface(dev: bigint, iface: bigint, speed: bigint)
input relation CircuitLink(a_dev: bigint, a_if: bigint, b_dev: bigint, b_if: bigint)
input relation BgpPolicy(pod: bigint, policy: string)

output relation IfaceConfig(dev: bigint, iface: bigint, mtu: bigint, desc: string)
output relation BgpSession(a_dev: bigint, b_dev: bigint, policy: string)

IfaceConfig(d, i, 9000, \"role:\" ++ role) :-
    Device(d, role, _), Interface(d, i, _).
BgpSession(a, b, pol) :-
    CircuitLink(a, _, b, _),
    Device(a, _, pod),
    BgpPolicy(pod, pol).
";

/// Sizes for the Robotron model.
#[derive(Debug, Clone, Copy)]
pub struct RobotronScale {
    /// Number of devices.
    pub devices: u64,
    /// Interfaces per device.
    pub ifaces_per_device: u64,
}

/// Build a Robotron engine preloaded at the given scale.
pub fn robotron_engine(scale: RobotronScale, seed: u64) -> ddlog::Engine {
    use ddlog::Value::{Int, Str};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = ddlog::Engine::from_source(ROBOTRON_PROGRAM).expect("program");
    let mut txn = ddlog::Transaction::new();
    for d in 0..scale.devices {
        let role = if d % 10 == 0 { "spine" } else { "rack" };
        txn.insert(
            "Device",
            vec![Int(d as i128), Str(role.into()), Int((d % 16) as i128)],
        );
        for i in 0..scale.ifaces_per_device {
            txn.insert("Interface", vec![Int(d as i128), Int(i as i128), Int(100)]);
        }
    }
    for pod in 0..16 {
        txn.insert("BgpPolicy", vec![Int(pod), Str("default".into())]);
    }
    // A sparse link mesh.
    for _ in 0..scale.devices {
        let a = rng.random_range(0..scale.devices) as i128;
        let b = rng.random_range(0..scale.devices) as i128;
        txn.insert("CircuitLink", vec![Int(a), Int(0), Int(b), Int(0)]);
    }
    engine.commit(txn).expect("preload");
    engine
}

/// One day of Robotron churn: ~50 small model changes (§2.1: "more than
/// 50 lines change across models" daily). Returns the number of changed
/// input rows.
pub fn robotron_daily_churn(engine: &mut ddlog::Engine, scale: RobotronScale, day: u64) -> usize {
    use ddlog::Value::Int;
    let mut rng = StdRng::seed_from_u64(0xC0FFEE + day);
    let mut changed = 0;
    for _ in 0..50 {
        let mut txn = ddlog::Transaction::new();
        let d = rng.random_range(0..scale.devices) as i128;
        let i = rng.random_range(0..scale.ifaces_per_device) as i128;
        // A device attribute flaps: remove + re-add an interface (two
        // model lines), the typical small change.
        txn.delete("Interface", vec![Int(d), Int(i), Int(100)]);
        txn.insert("Interface", vec![Int(d), Int(i), Int(100)]);
        changed += 2;
        engine.commit(txn).expect("churn");
    }
    changed
}

/// One measured entry of a `BENCH_*.json` report: a stable name, the
/// median wall time per operation, and the deterministic dataflow work
/// per operation (tuples processed per commit, from the engine's
/// [`ddlog::WorkProfile`]). Absolute wall time is informational —
/// regression gating keys on `tuples_per_op`, which is reproducible
/// across machines — but an entry may additionally declare a *relative*
/// wall budget against another entry in the same report via `wall_ref` +
/// `max_wall_ratio`. Ratios between entries measured in the same process
/// on the same machine are machine-independent, so `compare` enforces
/// them unconditionally (no `--enforce-time` needed). This is how the
/// fig3 scaling cliff is pinned: `reachability_churn/n=20000` must stay
/// within 2x the wall time of `reachability_churn/n=200`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Stable entry name, identical between `--quick` and full runs.
    pub name: String,
    /// Median wall time per operation, nanoseconds.
    pub median_ns_per_op: u64,
    /// Median dataflow tuples processed per operation.
    pub tuples_per_op: u64,
    /// Name of the entry (same report) this entry's wall time is
    /// budgeted against, if any.
    pub wall_ref: Option<String>,
    /// Maximum allowed `median_ns_per_op` ratio vs the `wall_ref` entry.
    pub max_wall_ratio: Option<f64>,
}

impl BenchEntry {
    /// An entry with no relative wall budget.
    pub fn new(name: &str, median_ns_per_op: u64, tuples_per_op: u64) -> Self {
        BenchEntry {
            name: name.to_string(),
            median_ns_per_op,
            tuples_per_op,
            wall_ref: None,
            max_wall_ratio: None,
        }
    }

    /// Attach a relative wall budget: this entry's wall/op must stay
    /// within `ratio` times that of the named reference entry.
    pub fn with_wall_budget(mut self, wall_ref: &str, ratio: f64) -> Self {
        self.wall_ref = Some(wall_ref.to_string());
        self.max_wall_ratio = Some(ratio);
        self
    }
}

/// Median of an unsorted sample (0 for an empty one).
pub fn median(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// Write a `BENCH_*.json` report.
pub fn write_bench_json(
    path: &str,
    bench: &str,
    entries: &[BenchEntry],
) -> Result<(), std::io::Error> {
    let entries: Vec<serde_json::Value> = entries
        .iter()
        .map(|e| {
            let mut v = serde_json::json!({
                "name": e.name,
                "median_ns_per_op": e.median_ns_per_op,
                "tuples_per_op": e.tuples_per_op,
            });
            if let (Some(wall_ref), Some(ratio)) = (&e.wall_ref, e.max_wall_ratio) {
                let obj = v.as_object_mut().expect("entry is an object");
                obj.insert("wall_ref".into(), serde_json::json!(wall_ref));
                obj.insert("max_wall_ratio".into(), serde_json::json!(ratio));
            }
            v
        })
        .collect();
    let doc = serde_json::json!({ "bench": bench, "entries": entries });
    std::fs::write(path, format!("{:#}\n", doc))
}

/// Read a `BENCH_*.json` report back: `(bench_name, entries)`.
pub fn read_bench_json(path: &str) -> Result<(String, Vec<BenchEntry>), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: serde_json::Value =
        serde_json::from_str(&raw).map_err(|e| format!("{path}: bad JSON: {e}"))?;
    let bench = doc
        .get("bench")
        .and_then(|b| b.as_str())
        .ok_or_else(|| format!("{path}: missing \"bench\""))?
        .to_string();
    let entries = doc
        .get("entries")
        .and_then(|e| e.as_array())
        .ok_or_else(|| format!("{path}: missing \"entries\""))?
        .iter()
        .map(|e| {
            Some(BenchEntry {
                name: e.get("name")?.as_str()?.to_string(),
                median_ns_per_op: e.get("median_ns_per_op")?.as_u64()?,
                tuples_per_op: e.get("tuples_per_op")?.as_u64()?,
                wall_ref: match e.get("wall_ref") {
                    Some(w) => Some(w.as_str()?.to_string()),
                    None => None,
                },
                max_wall_ratio: e.get("max_wall_ratio").and_then(|r| r.as_f64()),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed entry"))?;
    Ok((bench, entries))
}

/// Format a duration in milliseconds with 3 decimals.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Print a report table: a header row then aligned data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_round_trips() {
        let entries = vec![
            BenchEntry::new("fig3/robotron_churn/devices=100", 12_345, 42),
            BenchEntry::new("fig3/reachability_churn/n=200", 6_789, 17),
            BenchEntry::new("fig3/reachability_churn/n=20000", 7_000, 17)
                .with_wall_budget("fig3/reachability_churn/n=200", 2.0),
        ];
        let path = std::env::temp_dir().join("bench_roundtrip_test.json");
        let path = path.to_str().unwrap();
        write_bench_json(path, "fig3", &entries).unwrap();
        let (bench, back) = read_bench_json(path).unwrap();
        let _ = std::fs::remove_file(path);
        assert_eq!(bench, "fig3");
        assert_eq!(back, entries);
        assert_eq!(median(&[3, 1, 2]), 2);
        assert_eq!(median(&[]), 0);
    }

    #[test]
    fn graph_is_deterministic() {
        assert_eq!(random_graph(100, 300, 7), random_graph(100, 300, 7));
        assert_ne!(random_graph(100, 300, 7), random_graph(100, 300, 8));
    }

    #[test]
    fn reachability_engine_labels_reachable_nodes() {
        let e = reachability_engine(50, 200, 1);
        let labels = e.dump("Label").unwrap();
        assert!(!labels.is_empty());
        assert!(labels.len() <= 50);
    }

    #[test]
    fn robotron_preload_and_churn() {
        let scale = RobotronScale {
            devices: 40,
            ifaces_per_device: 4,
        };
        let mut e = robotron_engine(scale, 3);
        let configs = e.relation_len("IfaceConfig").unwrap();
        assert_eq!(configs, 160);
        let changed = robotron_daily_churn(&mut e, scale, 0);
        assert_eq!(changed, 100);
        // Churn must not corrupt the derived state (delete+re-add is
        // identity).
        assert_eq!(e.relation_len("IfaceConfig").unwrap(), configs);
    }
}
