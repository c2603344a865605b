//! Durability end-to-end: a durable OVSDB server is killed mid-churn
//! (with a torn WAL tail), restarted from its durability directory, and
//! the controller reconverges through the supervisor's epoch-reset
//! detection + resync.
//!
//! The crash here is the real thing at the boundary the harness can
//! reach: the server (and the database's open WAL handle) is dropped
//! with no graceful shutdown, the log file is damaged on disk exactly as
//! an interrupted `write` would leave it, and recovery starts from the
//! bytes alone.

use std::sync::Mutex;
use std::time::Duration;

use chaos::{ConnFault, Direction, FaultProxy, FaultSchedule, Framing};
use nerpa::codegen::CodegenOptions;
use nerpa::controller::{Controller, NerpaProgram};
use nerpa::resync::{BackoffPolicy, MonitorConfig, OvsdbSupervisor};
use ovsdb::{DurabilityConfig, FsyncPolicy, RecoveryReport, WalError};
use p4sim::service::SwitchDevice;
use p4sim::Switch;
use serde_json::json;

struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("nerpa-durability-e2e-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durability() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::EveryN(2),
        snapshot_after_bytes: 1 << 20,
    }
}

/// The `ovsdb_wal` health component lives on the process-global board,
/// and the tests in this binary run concurrently: every open that also
/// reads the board must hold this lock so another test's open can't
/// overwrite the status in between.
static HEALTH_BOARD: Mutex<()> = Mutex::new(());

type OpenResult = Result<(ovsdb::Database, RecoveryReport), WalError>;

/// Open the durable database and capture the `ovsdb_wal` health status
/// the open left behind, atomically w.r.t. the other tests here.
fn open_durable(dir: &std::path::Path, schema: &ovsdb::Schema) -> (OpenResult, String) {
    let _guard = HEALTH_BOARD.lock().unwrap_or_else(|e| e.into_inner());
    let result = ovsdb::Database::open(dir, schema.clone(), durability());
    let health = telemetry::global()
        .health
        .get("ovsdb_wal")
        .expect("open must publish ovsdb_wal health");
    (result, health)
}

/// Recover from `dir` and serve on `addr`, retrying the bind briefly:
/// the crashed listener's port may still be tearing down. Recovery is
/// idempotent, so each attempt re-opens from disk.
fn restart_server(
    dir: &std::path::Path,
    schema: &ovsdb::Schema,
    addr: std::net::SocketAddr,
) -> ovsdb::Server {
    for _ in 0..100 {
        let (db, _) = open_durable(dir, schema).0.expect("recovery succeeds");
        match ovsdb::Server::start(db, addr) {
            Ok(server) => return server,
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("could not rebind {addr}");
}

#[test]
fn server_crash_recovers_wal_and_controller_reconverges() {
    let scratch = Scratch::new("crash");
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();

    // --- Durable server, some committed churn -----------------------
    let (open, health) = open_durable(&scratch.0, &schema);
    let (db, report) = open.unwrap();
    assert_eq!(report.replayed_records, 0, "fresh directory");
    assert!(health.starts_with("ok("), "fresh open health: {health}");
    let server = ovsdb::Server::start(db, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let admin = ovsdb::Client::connect(addr).unwrap();
    admin
        .transact(
            "snvs",
            json!([
                {"op": "insert", "table": "Switch", "row": {"idx": 0}},
                {"op": "insert", "table": "Port",
                 "row": {"id": 1, "vlan_mode": "access", "tag": 10}}
            ]),
        )
        .unwrap();
    admin
        .transact(
            "snvs",
            json!([{"op": "insert", "table": "Port",
                    "row": {"id": 2, "vlan_mode": "access", "tag": 11}}]),
        )
        .unwrap();

    // Controller + in-process switch, supervised over TCP.
    let program = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
    let device = SwitchDevice::new(Switch::new(program.clone()));
    let nerpa_program = NerpaProgram {
        schema: schema.clone(),
        p4info: p4sim::P4Info::from_program(&program),
        rules: snvs::assets::SNVS_RULES.to_string(),
        options: CodegenOptions { per_switch: true },
    };
    let mut controller = Controller::new(&nerpa_program).unwrap();
    controller.add_switch(Box::new(device.clone()));
    // The supervisor dials through a proxy that lets its first session
    // through and cuts its second (the reconnect after the crash) right
    // after the `commit_index` reply, so the reconnect that detects the
    // epoch reset fails once and is retried.
    let proxy = FaultProxy::start(
        addr,
        FaultSchedule::scripted(
            0xE90C,
            Framing::Ndjson,
            vec![
                ConnFault::transparent(),
                ConnFault::kill_after(1, Direction::ServerToClient),
            ],
        ),
    )
    .unwrap();
    let mut supervisor = OvsdbSupervisor::new(
        proxy.local_addr(),
        MonitorConfig::all_columns("snvs", &["Port", "Switch"]),
        BackoffPolicy {
            base: Duration::from_millis(50),
            max: Duration::from_secs(1),
            multiplier: 2.0,
            max_attempts: 20,
            jitter: 0.2,
            seed: 11,
        },
    )
    .unwrap();
    let (client1, updates1, _) = supervisor.connect_and_sync(&mut controller).unwrap();
    assert_eq!(supervisor.stats.epoch_resets, 0);
    let first_index = supervisor.stats.last_commit_index.expect("index recorded");
    assert_eq!(first_index, 2, "two transactions committed before connect");
    assert_eq!(device.read_table("InVlan").unwrap().len(), 2);

    // Live churn: one more port, delivered over the monitor stream.
    admin
        .transact(
            "snvs",
            json!([{"op": "insert", "table": "Port",
                    "row": {"id": 3, "vlan_mode": "access", "tag": 12}}]),
        )
        .unwrap();
    let update = updates1.recv_timeout(Duration::from_secs(5)).unwrap();
    controller.handle_monitor_update(&update).unwrap();
    assert_eq!(device.read_table("InVlan").unwrap().len(), 3);

    // --- Crash -------------------------------------------------------
    // Clients close first (so the listener port is clean for the
    // rebind), then the server dies taking the open WAL handle with it.
    drop(client1);
    drop(admin);
    drop(server);

    // The crash lands inside the fsync loss window: the final record
    // (port 3) was still buffered and never reaches disk at all, and the
    // one before it (port 2) is torn mid-write.
    let wal_path = scratch.0.join(ovsdb::wal::WAL_FILE);
    let image = std::fs::read(&wal_path).unwrap();
    let (last_start, _) = ovsdb::wal::final_record_span(&image).expect("log has records");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    file.set_len(last_start).unwrap();
    drop(file);
    let chopped = ovsdb::wal::tear_tail(&wal_path, 7).unwrap();
    assert_eq!(chopped, 7);

    // --- Recovery ----------------------------------------------------
    let (open, health) = open_durable(&scratch.0, &schema);
    let (db2, report2) = open.unwrap();
    assert!(report2.truncated_tail, "torn tail detected and truncated");
    assert_eq!(
        db2.commit_index(),
        1,
        "the unsynced and the torn transaction are both lost"
    );
    assert_eq!(db2.rows("Port").count(), 1, "ports 2 and 3 are gone");
    assert!(health.starts_with("ok("), "health after recovery: {health}");
    drop(db2);

    let server2 = restart_server(&scratch.0, &schema, addr);

    // --- Reconnect: epoch reset + resync ------------------------------
    let resets = || {
        telemetry::global()
            .registry
            .value("resync_epoch_resets_total")
            .unwrap_or(0)
    };
    let resets_before = resets();
    let (client2, updates2, resync) = supervisor.connect_and_sync(&mut controller).unwrap();
    assert_eq!(proxy.stats().kills, 1, "the first reconnect was cut");
    assert_eq!(
        supervisor.stats.epoch_resets, 1,
        "lower commit index must be detected as one epoch reset, however many tries it takes"
    );
    assert_eq!(resets() - resets_before, 1);
    assert_eq!(supervisor.stats.last_commit_index, Some(1));
    // The controller held the lost transactions' rows; the resync
    // retracts them.
    assert_eq!(resync.deletes, 2, "the lost port rows are retracted");
    assert_eq!(resync.inserts, 0);
    assert_eq!(device.read_table("InVlan").unwrap().len(), 1);

    // --- Reconverge: the lost configuration is re-issued -------------
    let admin2 = ovsdb::Client::connect(server2.local_addr()).unwrap();
    admin2
        .transact(
            "snvs",
            json!([
                {"op": "insert", "table": "Port",
                 "row": {"id": 2, "vlan_mode": "access", "tag": 11}},
                {"op": "insert", "table": "Port",
                 "row": {"id": 3, "vlan_mode": "access", "tag": 12}}
            ]),
        )
        .unwrap();
    let update = updates2.recv_timeout(Duration::from_secs(5)).unwrap();
    controller.handle_monitor_update(&update).unwrap();
    assert_eq!(device.read_table("InVlan").unwrap().len(), 3);
    drop(client2);
}

#[test]
fn monitor_initial_state_is_served_from_recovered_state() {
    // A server restarted on a recovered database serves monitor
    // initial-state from the replayed WAL — a controller that connects
    // after the restart sees exactly the pre-crash committed state with
    // no special cases.
    let scratch = Scratch::new("monitor");
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let (open, _) = open_durable(&scratch.0, &schema);
    let server = ovsdb::Server::start(open.unwrap().0, "127.0.0.1:0").unwrap();
    let admin = ovsdb::Client::connect(server.local_addr()).unwrap();
    admin
        .transact(
            "snvs",
            json!([
                {"op": "insert", "table": "Switch", "row": {"idx": 0}},
                {"op": "insert", "table": "Port",
                 "row": {"id": 4, "vlan_mode": "access", "tag": 20}}
            ]),
        )
        .unwrap();
    let (pre, _updates) = admin
        .monitor("snvs", json!("pre"), json!({"Port": {}, "Switch": {}}))
        .unwrap();
    drop(admin);
    drop(server);

    let (open, _) = open_durable(&scratch.0, &schema);
    let (db2, report) = open.unwrap();
    assert_eq!(report.replayed_records, 1);
    let server2 = ovsdb::Server::start(db2, "127.0.0.1:0").unwrap();
    let client = ovsdb::Client::connect(server2.local_addr()).unwrap();
    let (post, _updates2) = client
        .monitor("snvs", json!("post"), json!({"Port": {}, "Switch": {}}))
        .unwrap();
    assert_eq!(pre, post, "recovered monitor snapshot differs");
    assert_eq!(client.commit_index().unwrap(), 1);
}

#[test]
fn corrupt_interior_refuses_and_reports_degraded() {
    // A log with a damaged interior record must refuse recovery with the
    // typed error and leave the health board degraded — the operator
    // signal that manual intervention (restore from snapshot/backup) is
    // needed, instead of silently dropping acknowledged transactions.
    let scratch = Scratch::new("corrupt");
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let (open, _) = open_durable(&scratch.0, &schema);
    let server = ovsdb::Server::start(open.unwrap().0, "127.0.0.1:0").unwrap();
    let admin = ovsdb::Client::connect(server.local_addr()).unwrap();
    for idx in 0..3 {
        admin
            .transact(
                "snvs",
                json!([{"op": "insert", "table": "Switch", "row": {"idx": idx}}]),
            )
            .unwrap();
    }
    drop(admin);
    drop(server);

    // Damage a byte in the *first* record's payload: corrupt interior.
    let wal_path = scratch.0.join(ovsdb::wal::WAL_FILE);
    let mut image = std::fs::read(&wal_path).unwrap();
    image[ovsdb::wal::RECORD_HEADER_LEN + 4] ^= 0xFF;
    std::fs::write(&wal_path, &image).unwrap();

    let (open, health) = open_durable(&scratch.0, &schema);
    match open {
        Err(WalError::CorruptRecord { offset, .. }) => assert_eq!(offset, 0),
        Ok(_) => panic!("corrupt interior accepted"),
        Err(other) => panic!("expected CorruptRecord, got {other}"),
    }
    assert!(
        health.starts_with("degraded("),
        "health after refused recovery: {health}"
    );
    // Leave a green board for anything else sharing this process.
    telemetry::global()
        .health
        .set("ovsdb_wal", "ok(test reset)");
}
