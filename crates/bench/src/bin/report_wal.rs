//! WAL-append throughput: the cost the durability layer adds to every
//! committed management-plane transaction, across fsync policies — and
//! what replaying a record costs on recovery.
//!
//! Each append run opens a durable [`ovsdb::Database`] in a scratch
//! directory and drives port upserts straight into `transact` (no TCP),
//! so the measured latency is exactly validate + WAL append (+ fsync per
//! policy) + apply. `EveryN(64)` is the default shipped policy; `Never`
//! shows the raw append ceiling; `Always` the per-txn fsync floor.
//!
//! Each replay run preloads a table of 2 000 or 20 000 ports into the
//! snapshot, logs one-row `["id","==",n]` updates after it, and times
//! recovery with the snapshot's own time subtracted: the cost of
//! replaying one record. A record holds the commit's row changes, so
//! that cost must not grow with the table; `wal_replay/rows_20000`
//! carries a same-process wall budget of 1.5x `wal_replay/rows_2000`.
//! The updates cycle over [`UPDATED_PORTS`] ports; spread over the
//! whole table, the 20 000-row log also pays a few cache misses per
//! record (1.25–1.9x, median 1.4x, in five runs on a 2-vCPU host),
//! which is the memory hierarchy, not replay work. The slope is taken
//! within each round of one half-log and one full-log recovery and the
//! median round counts: ten `--quick` runs on a 2-vCPU host read
//! 0.72–1.18x, where the difference of each log's fastest recovery read
//! 0.75–2.75x.
//!
//! Each transact run preloads an in-memory (not durable) table of 2 000
//! or 20 000 ports and times the same one-row updates through
//! `Database::transact` alone. The `where` is answered from the `id`
//! index, so a transaction examines one row at either size;
//! `transact/rows_20000` carries a same-process wall budget of 1.5x
//! `transact/rows_2000`.
//!
//! Absolute wall time is machine-dependent and informational; what
//! `compare` gates against `baselines/BENCH_wal.json` is the
//! deterministic log bytes per transaction (or per replayed record),
//! the rows a transact examines, and the replay and transact wall
//! ratios.

use std::time::Instant;

use bench::BenchEntry;
use ovsdb::{DurabilityConfig, FsyncPolicy};
use serde_json::{json, Value as Json};

const TXNS: usize = 4000;
const TXNS_QUICK: usize = 400;

/// Table sizes the replay cost is measured at.
const REPLAY_ROWS: [usize; 2] = [2_000, 20_000];
/// One-row update records in the longer of the two replayed logs.
const REPLAYED: usize = 1000;
/// The ports those updates cycle over: few enough that the rows they
/// touch stay in cache at either table size, so the replay ratio
/// measures work per record rather than the memory hierarchy.
const UPDATED_PORTS: usize = 64;
/// Rounds of paired half- and full-log recoveries timed per table (the
/// median slope counts).
const RECOVERIES: usize = 9;
/// Rounds of [`UPDATED_PORTS`] updates timed per in-memory table (the
/// fastest one counts).
const TRANSACT_ROUNDS: usize = 25;

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
    let cfg = DurabilityConfig {
        fsync,
        // Pure append measurement: never compact mid-run.
        snapshot_after_bytes: u64::MAX,
    };
    let (mut db, _) = ovsdb::Database::open(&scratch.0, schema(), cfg).expect("open durable db");
    let mut lat_ns = Vec::with_capacity(txns);
    for i in 0..txns {
        let port = (i % 512) as u16;
        let ops = json!([
            {"op": "delete", "table": "Port", "where": [["id", "==", port]]},
            {"op": "insert", "table": "Port",
             "row": {"id": port, "vlan_mode": "access", "tag": 10 + (i % 64)}}
        ]);
        let t = Instant::now();
        commit(&mut db, &ops);
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    (lat_ns, db.wal_bytes())
}

fn schema() -> ovsdb::Schema {
    ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).expect("schema")
}

/// Commit `ops`, asserting every operation succeeded.
fn commit(db: &mut ovsdb::Database, ops: &Json) {
    let (results, _) = db.transact(ops);
    assert!(
        results
            .as_array()
            .is_some_and(|r| r.iter().all(|e| e.get("error").is_none())),
        "txn failed: {results}"
    );
}

/// Insert ports `0..rows`.
fn preload(db: &mut ovsdb::Database, rows: usize) {
    let ids: Vec<usize> = (0..rows).collect();
    for chunk in ids.chunks(500) {
        let inserts = chunk.iter().map(|id| {
            json!({"op": "insert", "table": "Port",
                   "row": {"id": id, "vlan_mode": "access", "tag": 10 + id % 64}})
        });
        commit(db, &Json::Array(inserts.collect()));
    }
}

/// The one-row update of port `id` that gives it tag `100 + visit % 64`.
fn update(id: usize, visit: usize) -> Json {
    json!([{"op": "update", "table": "Port", "where": [["id", "==", id]],
            "row": {"tag": 100 + visit % 64}}])
}

/// A preloaded table of `rows` ports (the snapshot) and two logs of
/// one-row updates after it.
struct ReplayLogs {
    rows: usize,
    /// The snapshot and the first half of the records.
    half: Scratch,
    /// The snapshot and all of them.
    full: Scratch,
    /// Log bytes per record.
    record_bytes: u64,
}

const REPLAY_CONFIG: DurabilityConfig = DurabilityConfig {
    fsync: FsyncPolicy::Never,
    snapshot_after_bytes: u64::MAX,
};

fn build_logs(rows: usize, records: usize) -> ReplayLogs {
    let half = Scratch::new(&format!("replay-half-{rows}"));
    let full = Scratch::new(&format!("replay-full-{rows}"));
    let (mut db, _) =
        ovsdb::Database::open(&full.0, schema(), REPLAY_CONFIG).expect("open durable db");
    preload(&mut db, rows);
    db.compact().expect("compact");
    for i in 0..records {
        if i == records / 2 {
            for file in [ovsdb::snapshot::SNAPSHOT_FILE, ovsdb::wal::WAL_FILE] {
                std::fs::copy(full.0.join(file), half.0.join(file)).expect("copy");
            }
        }
        // Every visit to a port gives it a tag its last visit did not.
        commit(&mut db, &update(i % UPDATED_PORTS, i / UPDATED_PORTS));
    }
    let record_bytes = db.wal_bytes() / records as u64;
    ReplayLogs {
        rows,
        half,
        full,
        record_bytes,
    }
}

/// Nanoseconds per replayed record for each of `logs`. Each recovery's
/// snapshot time is subtracted from its total, and a round's cost per
/// record is the slope between its half- and full-log recovery, so what
/// a recovery pays once (reading the log, freeing the decoded snapshot)
/// cancels out. A round recovers a table's two logs back to back, the
/// half first in even rounds and the full first in odd ones, so a slow
/// stretch of the host or a warm cache hits both ends of one slope
/// alike; the median slope of [`RECOVERIES`] rounds counts.
fn replay_costs(logs: &[ReplayLogs], records: usize) -> Vec<u64> {
    let recover = |dir: &std::path::Path| {
        let (_, report) = ovsdb::Database::open(dir, schema(), REPLAY_CONFIG).expect("recover");
        report.replay_duration - report.snapshot_duration
    };
    let slope_records = (records - records / 2) as u32;
    let mut slopes = vec![Vec::with_capacity(RECOVERIES); logs.len()];
    for round in 0..RECOVERIES {
        for (log, slopes) in logs.iter().zip(&mut slopes) {
            let (half, full) = if round % 2 == 0 {
                let half = recover(&log.half.0);
                (half, recover(&log.full.0))
            } else {
                let full = recover(&log.full.0);
                (recover(&log.half.0), full)
            };
            slopes.push((full.saturating_sub(half) / slope_records).as_nanos() as u64);
        }
    }
    slopes.iter().map(|s| bench::median(s)).collect()
}

/// Nanoseconds and rows examined per one-row update on an in-memory
/// table of each of `sizes` ports. Each round updates every one of
/// [`UPDATED_PORTS`] once; rounds go round the tables in turn, so a slow
/// stretch of the host hits all of them alike, and the fastest of
/// [`TRANSACT_ROUNDS`] counts.
fn transact_costs(sizes: &[usize]) -> Vec<(u64, u64)> {
    let mut dbs: Vec<ovsdb::Database> = sizes
        .iter()
        .map(|&rows| {
            let mut db = ovsdb::Database::new(schema());
            preload(&mut db, rows);
            db
        })
        .collect();
    let mut costs = vec![(u64::MAX, 0); dbs.len()];
    for round in 0..TRANSACT_ROUNDS {
        let ops: Vec<Json> = (0..UPDATED_PORTS).map(|id| update(id, round)).collect();
        for (db, (best, examined)) in dbs.iter_mut().zip(&mut costs) {
            let before = db.rows_examined();
            let t = Instant::now();
            for op in &ops {
                commit(db, op);
            }
            *best = (*best).min(t.elapsed().as_nanos() as u64 / UPDATED_PORTS as u64);
            *examined = (db.rows_examined() - before) / UPDATED_PORTS as u64;
        }
    }
    costs
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

    let logs: Vec<ReplayLogs> = REPLAY_ROWS
        .iter()
        .map(|&rows| build_logs(rows, REPLAYED))
        .collect();
    let costs = replay_costs(&logs, REPLAYED);
    let mut rows = Vec::new();
    for (log, &ns) in logs.iter().zip(&costs) {
        rows.push(vec![
            log.rows.to_string(),
            REPLAYED.to_string(),
            format!("{:.2}", ns as f64 / 1e3),
            log.record_bytes.to_string(),
        ]);
        let entry = BenchEntry::new(
            &format!("wal_replay/rows_{}", log.rows),
            ns,
            log.record_bytes,
        );
        entries.push(if log.rows == REPLAY_ROWS[0] {
            entry
        } else {
            entry.with_wall_budget(&format!("wal_replay/rows_{}", REPLAY_ROWS[0]), 1.5)
        });
    }
    bench::print_table(
        "WAL replay per record (one-row update over a preloaded table)",
        &["rows", "records", "us/record", "log bytes/record"],
        &rows,
    );
    println!(
        "\nshape check: a record holds the commit's row changes, so replaying it \
         costs the same at 20 000 rows as at 2 000 ({:.2}x; budget 1.5x).",
        costs[1] as f64 / costs[0].max(1) as f64
    );

    let costs = transact_costs(&REPLAY_ROWS);
    let mut rows = Vec::new();
    for (&size, &(ns, examined)) in REPLAY_ROWS.iter().zip(&costs) {
        rows.push(vec![
            size.to_string(),
            format!("{:.2}", ns as f64 / 1e3),
            examined.to_string(),
        ]);
        // tuples_per_op carries rows examined per transaction.
        let entry = BenchEntry::new(&format!("transact/rows_{size}"), ns, examined);
        entries.push(if size == REPLAY_ROWS[0] {
            entry
        } else {
            entry.with_wall_budget(&format!("transact/rows_{}", REPLAY_ROWS[0]), 1.5)
        });
    }
    bench::print_table(
        "In-memory transact per one-row update (`where` on the id index)",
        &["rows", "us/txn", "rows examined/txn"],
        &rows,
    );
    println!(
        "\nshape check: the `where` reads the one row the index names, so a \
         transaction costs the same at 20 000 rows as at 2 000 ({:.2}x; budget 1.5x).",
        costs[1].0 as f64 / costs[0].0.max(1) as f64
    );

    if let Some(path) = out {
        bench::write_bench_json(&path, "wal_append", &entries).expect("write bench json");
        println!("wrote {path}");
    }
    bench::dump_metrics_snapshot();
}
