//! One stack run that registers and moves the series of every plane:
//! an in-process snvs stack with learned MACs, a traced commit over
//! TCP, a durable server recovered after a supervised reconnect that
//! backs off and then compacted, a two-shard runtime, a shard writer
//! stalled past its watchdog (its shard's reconcile fails on the
//! poisoned switch), a write the device rejects, and a monitor evicted
//! for not reading, whose blocked socket write then fails.
//!
//! `parent_run.tsv` next to this file is the series list this run
//! showed at commit 9f7676d, before metrics were folded from events,
//! with each per-operator family's series collapsed to `family{*}`.

use std::time::Duration;

use chaos::{FaultProxy, FaultSchedule, Framing};
use nerpa::codegen::CodegenOptions;
use nerpa::controller::{Controller, DataPlane, NerpaProgram};
use nerpa::resync::{BackoffPolicy, MonitorConfig, OvsdbSupervisor};
use netsim::{ethertype, EthFrame, Mac};
use ovsdb::rpc::{write_message, Message};
use ovsdb::{DurabilityConfig, FsyncPolicy};
use p4sim::runtime::{FieldMatch, TableEntry, Update, WriteOp};
use p4sim::service::{ControlClient, ControlService, SwitchDevice};
use p4sim::Switch;
use serde_json::{json, Value as Json};
use shard::{OverloadPolicy, PartitionSpec, Router, ShardRuntime};
use snvs::{PortMode, SnvsStack};

fn program() -> (ovsdb::Schema, p4sim::ast::Program, NerpaProgram) {
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let p4 = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
    let program = NerpaProgram {
        schema: schema.clone(),
        p4info: p4sim::P4Info::from_program(&p4),
        rules: snvs::assets::SNVS_RULES.to_string(),
        options: CodegenOptions { per_switch: true },
    };
    (schema, p4, program)
}

/// Run every part once. `tag` keeps the durable directory of one run
/// apart from another's.
pub fn run_stack(tag: &str) {
    in_process_stack();
    traced_tcp_commit();
    durable_server_and_supervisor(tag);
    sharded_runtime();
    stalled_shard_writer();
    rejected_write();
    evicted_monitor();
}

/// Ports, then two hosts that learn each other's MACs through digests.
fn in_process_stack() {
    let mut stack = SnvsStack::new(1).unwrap();
    for port in 0..4u16 {
        stack.add_port(port, PortMode::Access(10), None).unwrap();
    }
    let h1 = stack.add_host(1, 0, 1);
    let h2 = stack.add_host(2, 0, 2);
    let frame = |dst: u32, src: u32| {
        EthFrame::new(Mac::host(dst), Mac::host(src), ethertype::IPV4, vec![1])
    };
    stack.send(h1, &frame(2, 1)).unwrap();
    stack.send(h2, &frame(1, 2)).unwrap();
}

/// One transaction through an OVSDB server, a monitor and a P4Runtime
/// service, the way the TCP e2e tests wire them.
fn traced_tcp_commit() {
    let (schema, p4, nerpa_program) = program();
    let server = ovsdb::Server::start(ovsdb::Database::new(schema), "127.0.0.1:0").unwrap();
    let device = SwitchDevice::new(Switch::new(p4));
    let service = ControlService::start(device, "127.0.0.1:0").unwrap();
    let mut controller = Controller::new(&nerpa_program).unwrap();
    controller.add_switch(Box::new(
        ControlClient::connect(service.local_addr()).unwrap(),
    ));
    let monitor = ovsdb::Client::connect(server.local_addr()).unwrap();
    let (initial, updates) = monitor
        .monitor("snvs", json!("nerpa"), json!({"Port": {}, "Switch": {}}))
        .unwrap();
    controller.handle_monitor_update(&initial).unwrap();
    let admin = ovsdb::Client::connect(server.local_addr()).unwrap();
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
    let update = updates.recv_timeout(Duration::from_secs(5)).unwrap();
    controller.handle_monitor_update(&update).unwrap();
}

/// A durable server the supervisor reaches through a proxy that is
/// partitioned at first (so it backs off), then the database reopened
/// from its log and compacted.
fn durable_server_and_supervisor(tag: &str) {
    let (schema, p4, nerpa_program) = program();
    let dir = std::env::temp_dir().join(format!("nerpa-metric-folds-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityConfig {
        fsync: FsyncPolicy::EveryN(2),
        snapshot_after_bytes: 1 << 20,
    };
    let (db, _) = ovsdb::Database::open(&dir, schema.clone(), durability).unwrap();
    let server = ovsdb::Server::start(db, "127.0.0.1:0").unwrap();
    let admin = ovsdb::Client::connect(server.local_addr()).unwrap();
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

    let proxy = FaultProxy::start(
        server.local_addr(),
        FaultSchedule::transparent(7, Framing::Ndjson),
    )
    .unwrap();
    proxy.partition_for(Duration::from_millis(60));
    let mut controller = Controller::new(&nerpa_program).unwrap();
    controller.add_switch(Box::new(SwitchDevice::new(Switch::new(p4))));
    let mut supervisor = OvsdbSupervisor::new(
        proxy.local_addr(),
        MonitorConfig::all_columns("snvs", &["Port", "Switch"]),
        BackoffPolicy {
            base: Duration::from_millis(40),
            max: Duration::from_millis(200),
            multiplier: 2.0,
            max_attempts: 20,
            jitter: 0.0,
            seed: 3,
        },
    )
    .unwrap();
    let (client, _updates, _) = supervisor.connect_and_sync(&mut controller).unwrap();
    admin
        .transact(
            "snvs",
            json!([{"op": "insert", "table": "Port",
                    "row": {"id": 2, "vlan_mode": "access", "tag": 11}}]),
        )
        .unwrap();
    drop(client);
    drop(admin);
    drop(proxy);
    drop(server);

    let (mut db, report) = ovsdb::Database::open(&dir, schema, durability).unwrap();
    assert_eq!(report.replayed_records, 2);
    db.compact().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two shards, two switches: settlements carry their shard.
fn sharded_runtime() {
    let (schema, p4, program) = program();
    let switches: Vec<(usize, Box<dyn DataPlane>)> = (0..2)
        .map(|id| {
            let dp: Box<dyn DataPlane> = Box::new(SwitchDevice::new(Switch::new(p4.clone())));
            (id, dp)
        })
        .collect();
    let runtime =
        ShardRuntime::start(&program, Router::new(PartitionSpec::snvs(), 2), switches).unwrap();
    let mut db = ovsdb::Database::new(schema);
    let mut commit = |ops: Json| {
        let (_, changes) = db.transact(&ops);
        runtime.handle_row_changes(&changes).unwrap();
        runtime.flush();
    };
    commit(json!([
        {"op": "insert", "table": "Switch", "row": {"idx": 0}},
        {"op": "insert", "table": "Switch", "row": {"idx": 1}},
        {"op": "insert", "table": "Port",
         "row": {"id": 1, "vlan_mode": "access", "tag": 10}}
    ]));
    commit(json!([
        {"op": "update", "table": "Port", "where": [["id", "==", 1]],
         "row": {"tag": 20}}
    ]));
    runtime.shutdown();
}

/// A switch whose device call never returns in time.
struct Hanging;

impl DataPlane for Hanging {
    fn write_updates(&self, _: &[Update]) -> Result<(), String> {
        std::thread::sleep(Duration::from_secs(2));
        Ok(())
    }

    fn set_mcast_group(&self, _: u16, _: Vec<u16>) -> Result<(), String> {
        std::thread::sleep(Duration::from_secs(2));
        Ok(())
    }
}

/// One shard whose writer hangs on switch 0: a push queued behind the
/// hung one fills the writer queue, so the next change's push is shed;
/// the watchdog supersedes the writer and poisons switch 0, so a later
/// push to it fails before reaching it.
fn stalled_shard_writer() {
    let (schema, p4, program) = program();
    let switches: Vec<(usize, Box<dyn DataPlane>)> = vec![
        (0, Box::new(Hanging)),
        (1, Box::new(SwitchDevice::new(Switch::new(p4)))),
    ];
    let policy = OverloadPolicy {
        write_queue_cap: 1,
        enqueue_deadline: Duration::from_millis(20),
        push_deadline: Duration::from_millis(200),
        watchdog_poll: Duration::from_millis(5),
        ..OverloadPolicy::default()
    };
    let router = Router::new(PartitionSpec::snvs(), 1);
    let runtime = ShardRuntime::start_with(&program, router, switches, policy).unwrap();
    let mut db = ovsdb::Database::new(schema);
    let mut commit = |ops: Json| {
        let (_, changes) = db.transact(&ops);
        runtime.handle_row_changes(&changes).unwrap();
    };
    let retag = |tag: u64| {
        json!([{"op": "update", "table": "Port", "where": [["id", "==", 1]],
                "row": {"tag": tag}}])
    };
    commit(json!([
        {"op": "insert", "table": "Switch", "row": {"idx": 0}},
        {"op": "insert", "table": "Switch", "row": {"idx": 1}},
        {"op": "insert", "table": "Port",
         "row": {"id": 1, "vlan_mode": "access", "tag": 10}}
    ]));
    commit(retag(20));
    runtime.flush();
    assert_eq!(runtime.poisoned_switches(0), [0]);
    commit(retag(30));
    runtime.flush();
    runtime.shutdown();
}

/// A write batch naming a table the program does not have.
fn rejected_write() {
    let (_, p4, _) = program();
    let device = SwitchDevice::new(Switch::new(p4));
    let bad = Update {
        op: WriteOp::Insert,
        entry: TableEntry {
            table: "NoSuchTable".into(),
            matches: vec![FieldMatch::Exact { value: 1 }],
            priority: 0,
            action: "nop".into(),
            params: vec![],
        },
    };
    assert!(device.write(&[bad]).is_err());
}

/// A monitor that never reads: its TCP window and then its outbox fill
/// with fat rows until the fan-out evicts it. The update that timed out
/// into the eviction was never delivered, so it is no notification.
/// Severing the socket fails the write its connection's writer is
/// blocked in, on that thread: waited for, so the run ends with it.
fn evicted_monitor() {
    let disconnects = || {
        telemetry::global()
            .registry
            .value("ovsdb_monitor_disconnects_total")
    };
    let disconnects_before = disconnects();
    let schema = ovsdb::Schema::from_json(&json!({
        "name": "slow",
        "tables": {"T": {"columns": {"k": {"type": "string"}}, "isRoot": true}}
    }))
    .unwrap();
    let overload = ovsdb::MonitorOverload {
        outbox_cap: 2,
        evict_deadline: Duration::from_millis(50),
    };
    let server =
        ovsdb::Server::start_with(ovsdb::Database::new(schema), "127.0.0.1:0", overload).unwrap();
    let mut slow = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let monitor = Message::Request {
        id: json!(1),
        method: "monitor".to_string(),
        params: json!(["slow", "slow", {"T": {}}]),
    };
    write_message(&mut slow, &monitor).unwrap();
    while server.subscription_count() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let big = "x".repeat(1 << 20);
    for i in 0.. {
        assert!(i < 64, "the slow monitor was never evicted");
        server.transact_local(&json!([
            {"op": "insert", "table": "T", "row": {"k": format!("{i}-{big}")}}
        ]));
        if server.subscription_count() == 0 {
            break;
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while disconnects() == disconnects_before {
        assert!(std::time::Instant::now() < deadline, "no failed write");
        std::thread::sleep(Duration::from_millis(1));
    }
}
