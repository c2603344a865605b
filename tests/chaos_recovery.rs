//! Chaos recovery: the full stack under deterministic fault injection.
//!
//! A seeded [`chaos::FaultProxy`] sits on the OVSDB link and kills it at
//! a scripted protocol message, then partitions the link; the controller
//! reconnects with backoff, re-issues its monitor, and resyncs with a
//! **delta-only** transaction — recovery work proportional to the
//! changes missed while disconnected, not to the database size. A
//! restarted switch is likewise reconciled by read-back + diff. The
//! final data-plane state must equal a fault-free run's.

use std::collections::BTreeSet;
use std::time::Duration;

use chaos::{ConnFault, Direction, FaultProxy, FaultSchedule, Framing};
use crossbeam_channel::RecvTimeoutError;
use nerpa::codegen::CodegenOptions;
use nerpa::controller::{Controller, NerpaProgram};
use nerpa::resync::{BackoffPolicy, MonitorConfig, OvsdbSupervisor};
use p4sim::runtime::{FieldMatch, TableEntry, Update, WriteOp};
use p4sim::service::{ControlClient, ControlService, SwitchDevice};
use p4sim::Switch;
use serde_json::json;

/// Entries grouped per table, order-insensitively, for state comparison.
fn table_state(tables: Vec<(String, Vec<TableEntry>)>) -> Vec<(String, BTreeSet<TableEntry>)> {
    tables
        .into_iter()
        .map(|(name, entries)| (name, entries.into_iter().collect()))
        .collect()
}

#[test]
fn ovsdb_link_death_recovers_with_delta_resync_and_switch_reconcile() {
    // Management plane, pre-populated with one switch and one port.
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let db_server =
        ovsdb::Server::start(ovsdb::Database::new(schema.clone()), "127.0.0.1:0").unwrap();
    let admin = ovsdb::Client::connect(db_server.local_addr()).unwrap();
    admin
        .transact(
            "snvs",
            json!([
                {"op": "insert", "table": "Switch", "row": {"idx": 0}},
                {"op": "insert", "table": "Port",
                 "row": {"id": 7, "vlan_mode": "access", "tag": 42}}
            ]),
        )
        .unwrap();

    // The chaos schedule: the first proxied connection dies right after
    // the 4th server→client message (commit-index response, monitor
    // response, two updates), then the link partitions. Every later
    // connection is transparent.
    let schedule = FaultSchedule::scripted(
        0xC0FFEE,
        Framing::Ndjson,
        vec![ConnFault::kill_after(4, Direction::ServerToClient)
            .partitioning(Duration::from_millis(300))],
    );
    let proxy = FaultProxy::start(db_server.local_addr(), schedule).unwrap();

    // Data plane + controller, wired over TCP like the full-stack test.
    let program = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
    let device = SwitchDevice::new(Switch::new(program.clone()));
    let p4_service = ControlService::start(device.clone(), "127.0.0.1:0").unwrap();
    let nerpa_program = NerpaProgram {
        schema,
        p4info: p4sim::P4Info::from_program(&program),
        rules: snvs::assets::SNVS_RULES.to_string(),
        options: CodegenOptions { per_switch: true },
    };
    let mut controller = Controller::new(&nerpa_program).unwrap();
    controller.add_switch(Box::new(
        ControlClient::connect(p4_service.local_addr()).unwrap(),
    ));
    // The `controller_*` series are process-wide; this file's other
    // test builds no controller, so their moves from here on are this
    // controller's.
    let registry = &telemetry::global().registry;
    let series = |name: &str| registry.value(name).unwrap();
    let resyncs = series("controller_resyncs_total");
    let reconciles = series("controller_reconciles_total");

    // The supervisor dials the OVSDB server *through the proxy*.
    let mut supervisor = OvsdbSupervisor::new(
        proxy.local_addr(),
        MonitorConfig::all_columns("snvs", &["Port", "Switch"]),
        BackoffPolicy {
            base: Duration::from_millis(50),
            max: Duration::from_secs(1),
            multiplier: 2.0,
            max_attempts: 10,
            jitter: 0.2,
            seed: 7,
        },
    )
    .unwrap();

    // First connect: the initial snapshot is a cold resync — everything
    // is new, and it flows through to the switch.
    let (client1, updates1, report1) = supervisor.connect_and_sync(&mut controller).unwrap();
    assert_eq!(supervisor.stats.attempts, 1);
    assert_eq!(report1.snapshot_rows, 2, "switch row + port row");
    assert_eq!(report1.inserts, 2);
    assert_eq!(report1.deletes, 0);
    assert_eq!(device.read_table("InVlan").unwrap().len(), 1);

    // Two live updates flow (server→client messages 2 and 3); the third
    // message is the scripted fatal one, delivered and then the link
    // dies.
    for tag in [43, 44] {
        admin
            .transact(
                "snvs",
                json!([{"op": "update", "table": "Port", "where": [["id", "==", 7]],
                        "row": {"tag": tag}}]),
            )
            .unwrap();
        let update = updates1.recv_timeout(Duration::from_secs(5)).unwrap();
        controller.handle_monitor_update(&update).unwrap();
    }
    assert_eq!(device.read_table("InVlan").unwrap()[0].params, vec![44]);

    // The kill is observed as a disconnect, not a timeout.
    assert_eq!(
        updates1.recv_timeout(Duration::from_secs(5)),
        Err(RecvTimeoutError::Disconnected)
    );
    assert!(!client1.is_connected());
    assert_eq!(proxy.stats().kills, 1);
    drop(client1);

    // While the link is down, the database moves on: five new ports.
    admin
        .transact(
            "snvs",
            json!([
                {"op": "insert", "table": "Port", "row": {"id": 10, "vlan_mode": "access", "tag": 10}},
                {"op": "insert", "table": "Port", "row": {"id": 11, "vlan_mode": "access", "tag": 10}},
                {"op": "insert", "table": "Port", "row": {"id": 12, "vlan_mode": "access", "tag": 10}},
                {"op": "insert", "table": "Port", "row": {"id": 13, "vlan_mode": "access", "tag": 11}},
                {"op": "insert", "table": "Port", "row": {"id": 14, "vlan_mode": "access", "tag": 11}}
            ]),
        )
        .unwrap();

    // Re-arm the partition so the reconnect provably needs backoff (the
    // scripted one may have partially elapsed while we committed).
    proxy.partition_for(Duration::from_millis(250));

    // Reconnect: several attempts refused, then the monitor is re-issued
    // and the engine resynced against the fresh snapshot.
    let (client2, _updates2, report2) = supervisor.connect_and_sync(&mut controller).unwrap();
    assert!(
        supervisor.stats.attempts >= 3,
        "reconnect under partition must take >= 2 attempts, saw {} total",
        supervisor.stats.attempts
    );
    assert_eq!(supervisor.stats.connects, 2);
    assert!(proxy.stats().refused >= 1);

    // The incrementality invariant across failure: the resync commits
    // exactly the five missed inserts, nothing proportional to the
    // database.
    assert_eq!(report2.snapshot_rows, 7, "switch row + six port rows");
    assert_eq!(report2.inserts, 5);
    assert_eq!(report2.deletes, 0);
    assert!(report2.delta_ops() < report2.snapshot_rows);
    assert_eq!(series("controller_resyncs_total") - resyncs, 2);
    assert_eq!(device.read_table("InVlan").unwrap().len(), 6);

    // --- Switch restart ---------------------------------------------
    // The switch dies and comes back empty except for one stale entry
    // (as a half-written boot script would leave).
    drop(p4_service);
    let device2 = SwitchDevice::new(Switch::new(program.clone()));
    let p4_service2 = ControlService::start(device2.clone(), "127.0.0.1:0").unwrap();
    let mut stale = device.read_table("InVlan").unwrap()[0].clone();
    match &mut stale.matches[0] {
        FieldMatch::Exact { value } => *value = 9999,
        other => panic!("unexpected InVlan key {other:?}"),
    }
    device2
        .write(&[Update {
            op: WriteOp::Insert,
            entry: stale,
        }])
        .unwrap();

    // Re-dial and reconcile: read back actual state, push only the diff.
    controller
        .replace_switch(
            0,
            Box::new(ControlClient::connect(p4_service2.local_addr()).unwrap()),
        )
        .unwrap();
    let rec = controller.reconcile_switch(0).unwrap();
    assert_eq!(rec.inserted, 6, "all desired entries were missing");
    assert_eq!(rec.deleted, 1, "the stale entry is retracted");
    assert_eq!(rec.unchanged, 0);

    // Reconciling an already-correct switch is a no-op.
    let rec2 = controller.reconcile_switch(0).unwrap();
    assert_eq!(rec2.inserted, 0);
    assert_eq!(rec2.deleted, 0);
    assert_eq!(rec2.unchanged, 6);
    assert_eq!(series("controller_reconciles_total") - reconciles, 2);

    // --- Equivalence with a fault-free run --------------------------
    // A fresh controller + switch fed the same final database state,
    // with no faults anywhere, must produce identical tables.
    let device_ff = SwitchDevice::new(Switch::new(program.clone()));
    let mut controller_ff = Controller::new(&nerpa_program).unwrap();
    controller_ff.add_switch(Box::new(device_ff.clone()));
    let direct = ovsdb::Client::connect(db_server.local_addr()).unwrap();
    let (initial_ff, _updates_ff) = direct
        .monitor("snvs", json!("ff"), json!({"Port": {}, "Switch": {}}))
        .unwrap();
    controller_ff.handle_monitor_update(&initial_ff).unwrap();

    assert_eq!(
        table_state(device2.read_all_tables()),
        table_state(device_ff.read_all_tables()),
        "chaos run must converge to the fault-free state"
    );
    drop(client2);
}

#[test]
fn p4_link_truncation_fails_cleanly_and_atomically() {
    // A proxy on the switch control link truncates the second request's
    // frame mid-wire and severs the link. The torn write must not be
    // applied, and the client must observe an error — never a hang.
    let program = p4sim::parse_p4(p4sim::parser::DEMO).unwrap();
    let device = SwitchDevice::new(Switch::new(program));
    let svc = ControlService::start(device.clone(), "127.0.0.1:0").unwrap();
    let schedule = FaultSchedule::scripted(
        31,
        Framing::LengthPrefixed,
        vec![ConnFault::kill_after(2, Direction::ClientToServer).truncating(6)],
    );
    let proxy = FaultProxy::start(svc.local_addr(), schedule).unwrap();
    let client = ControlClient::connect(proxy.local_addr()).unwrap();

    let entry = |v: u128| Update {
        op: WriteOp::Insert,
        entry: TableEntry {
            table: "InVlan".into(),
            matches: vec![FieldMatch::Exact { value: v }],
            priority: 0,
            action: "set_vlan".into(),
            params: vec![10],
        },
    };

    // First write flows through the proxy untouched.
    client.write(&[entry(1)]).unwrap();
    assert_eq!(device.read_table("InVlan").unwrap().len(), 1);

    // The second request is torn: the switch sees a broken frame and
    // drops the connection; the client gets a prompt error.
    client.write(&[entry(2)]).unwrap_err();
    assert_eq!(proxy.stats().truncations, 1);
    assert_eq!(proxy.stats().kills, 1);
    assert_eq!(
        device.read_table("InVlan").unwrap().len(),
        1,
        "a torn frame must not be applied"
    );

    // Recovery: a fresh, direct connection retries the same write.
    let direct = ControlClient::connect(svc.local_addr()).unwrap();
    direct.write(&[entry(2)]).unwrap();
    assert_eq!(device.read_table("InVlan").unwrap().len(), 2);
}
