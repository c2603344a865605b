//! WAL-append throughput: the cost the durability layer adds to every
//! committed management-plane transaction, across fsync policies.
//!
//! Each run opens a durable [`ovsdb::Database`] in a scratch directory
//! and drives port upserts straight into `transact` (no TCP), so the
//! measured latency is exactly validate + WAL append (+ fsync per
//! policy) + overlay apply. `EveryN(64)` is the default shipped policy;
//! `Never` shows the raw append ceiling; `Always` the per-txn fsync
//! floor. Wall time is machine-dependent and informational; what
//! `compare` gates against `baselines/BENCH_wal.json` is the
//! deterministic log bytes per committed transaction.

use std::time::Instant;

use bench::BenchEntry;
use ovsdb::{DurabilityConfig, FsyncPolicy};
use serde_json::json;

const TXNS: usize = 4000;
const TXNS_QUICK: usize = 400;

struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("nerpa-bench-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_policy(tag: &str, fsync: FsyncPolicy, txns: usize) -> (Vec<u64>, u64) {
    let scratch = Scratch::new(tag);
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).expect("schema");
    let cfg = DurabilityConfig {
        fsync,
        // Pure append measurement: never compact mid-run.
        snapshot_after_bytes: u64::MAX,
    };
    let (mut db, _) = ovsdb::Database::open(&scratch.0, schema, cfg).expect("open durable db");
    let mut lat_ns = Vec::with_capacity(txns);
    for i in 0..txns {
        let port = (i % 512) as u16;
        let ops = json!([
            {"op": "delete", "table": "Port", "where": [["id", "==", port]]},
            {"op": "insert", "table": "Port",
             "row": {"id": port, "vlan_mode": "access", "tag": 10 + (i % 64)}}
        ]);
        let t = Instant::now();
        let (results, _) = db.transact(&ops);
        lat_ns.push(t.elapsed().as_nanos() as u64);
        assert!(
            results
                .as_array()
                .is_some_and(|r| r.iter().all(|e| e.get("error").is_none())),
            "txn {i} failed: {results}"
        );
    }
    (lat_ns, db.wal_bytes())
}

fn main() {
    let mut out: Option<String> = None;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = args.next(),
            "--quick" => quick = true,
            other => {
                eprintln!("usage: report_wal [--out FILE] [--quick] (got {other:?})");
                std::process::exit(2);
            }
        }
    }
    let txns = if quick { TXNS_QUICK } else { TXNS };

    println!("WAL-append throughput: durability cost per committed transaction");

    let policies: [(&str, FsyncPolicy); 3] = [
        ("fsync_every_64", FsyncPolicy::EveryN(64)),
        ("fsync_never", FsyncPolicy::Never),
        ("fsync_always", FsyncPolicy::Always),
    ];
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for (tag, fsync) in policies {
        let (lat_ns, wal_bytes) = run_policy(tag, fsync, txns);
        let mut sorted = lat_ns.clone();
        sorted.sort_unstable();
        let median = bench::median(&lat_ns);
        let p99 = sorted[(sorted.len() - 1) * 99 / 100];
        let per_txn = wal_bytes / txns as u64;
        rows.push(vec![
            tag.to_string(),
            txns.to_string(),
            format!("{:.1}", median as f64 / 1e3),
            format!("{:.1}", p99 as f64 / 1e3),
            format!("{:.1}", 1e9 / median as f64),
            per_txn.to_string(),
        ]);
        // tuples_per_op carries log bytes per committed txn:
        // deterministic, unlike wall time.
        entries.push(BenchEntry::new(
            &format!("wal_append/{tag}"),
            median,
            per_txn,
        ));
    }

    bench::print_table(
        "WAL append per transaction (validate + append + fsync + apply)",
        &[
            "policy",
            "txns",
            "median(us)",
            "p99(us)",
            "txns/sec",
            "log bytes/txn",
        ],
        &rows,
    );
    println!(
        "\nshape check: Never bounds the raw append cost, Always pays an fsync per \
         commit, and the shipped EveryN(64) should sit near Never with a 64-commit \
         loss window."
    );

    if let Some(path) = out {
        bench::write_bench_json(&path, "wal_append", &entries).expect("write bench json");
        println!("wrote {path}");
    }
    bench::dump_metrics_snapshot();
}
