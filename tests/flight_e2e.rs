//! The flight recorder end to end: an oracle-caught failure ships a
//! `.nfr` dump whose merged timeline shows the causally ordered
//! ovsdb → ddlog → shard → p4 events for a traced commit, and
//! convergence lag is recorded for every committed transaction even
//! while a chaos proxy is severing a switch link mid-run.

use std::io::{Read, Write};
use std::time::Duration;

use chaos::{ConnFault, Direction, FaultProxy, FaultSchedule, Framing};
use fullstack_sdn::flight::Timeline;
use nerpa::codegen::CodegenOptions;
use nerpa::controller::{DataPlane, NerpaProgram};
use oracle::{run_oracle, InjectedBug, OracleConfig};
use p4sim::service::{ControlClient, ControlService, SwitchDevice};
use p4sim::Switch;
use serde_json::json;
use shard::{PartitionSpec, Router, ShardRuntime};

fn snvs_program() -> (ovsdb::Schema, p4sim::ast::Program, NerpaProgram) {
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let program = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
    let nerpa_program = NerpaProgram {
        schema: schema.clone(),
        p4info: p4sim::P4Info::from_program(&program),
        rules: snvs::assets::SNVS_RULES.to_string(),
        options: CodegenOptions { per_switch: true },
    };
    (schema, program, nerpa_program)
}

fn trace_of(update: &serde_json::Value) -> u64 {
    update
        .get(ovsdb::TRACE_KEY)
        .and_then(|t| t.get("id"))
        .and_then(|id| id.as_u64())
        .expect("monitor update must carry the commit's trace id")
}

/// The pinned acceptance path: a full sharded TCP stack commits one
/// traced change (filling the rings with its cross-plane events), then
/// an injected engine bug makes the oracle fail — and the `.nfr` dump
/// it ships must replay that commit as a causally ordered
/// ovsdb → ddlog → shard → p4 timeline under `nerpa flight`'s loader.
#[test]
fn oracle_failure_ships_causally_ordered_flight_dump() {
    let (_, program, nerpa_program) = snvs_program();

    // Two switches over TCP, one shard each.
    let mut devices = Vec::new();
    let mut services = Vec::new();
    let mut switches: Vec<(usize, Box<dyn DataPlane>)> = Vec::new();
    for sw in 0..2 {
        let device = SwitchDevice::new(Switch::new(program.clone()));
        let service = ControlService::start(device.clone(), "127.0.0.1:0").unwrap();
        let client = ControlClient::connect(service.local_addr()).unwrap();
        switches.push((sw, Box::new(client)));
        devices.push(device);
        services.push(service);
    }
    let router = Router::new(PartitionSpec::snvs(), 2);
    let runtime = ShardRuntime::start(&nerpa_program, router, switches).unwrap();

    // Management plane over TCP; the commit's trace id is minted by the
    // server and rides the monitor update into every shard.
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let db_server = ovsdb::Server::start(ovsdb::Database::new(schema), "127.0.0.1:0").unwrap();
    let monitor = ovsdb::Client::connect(db_server.local_addr()).unwrap();
    let (_initial, updates) = monitor
        .monitor("snvs", json!("flight"), json!({"Port": {}, "Switch": {}}))
        .unwrap();
    let admin = ovsdb::Client::connect(db_server.local_addr()).unwrap();
    admin
        .transact(
            "snvs",
            json!([
                {"op": "insert", "table": "Switch", "row": {"idx": 0}},
                {"op": "insert", "table": "Switch", "row": {"idx": 1}},
                {"op": "insert", "table": "Port",
                 "row": {"id": 7, "vlan_mode": "access", "tag": 42}}
            ]),
        )
        .unwrap();
    let update = updates.recv_timeout(Duration::from_secs(5)).unwrap();
    let trace = trace_of(&update);
    runtime.handle_monitor_update(&update).unwrap();
    runtime.flush();
    for device in &devices {
        assert_eq!(
            device.with_switch(|s| s.read_table("InVlan").unwrap().len()),
            1
        );
    }

    // Now the failure: the stale-arrangement engine bug trips the
    // oracle's differential check, and the failure snapshots the rings
    // — which still hold the traced commit above — into a dump.
    let cfg = OracleConfig {
        bug: Some(InjectedBug::StaleArrangement),
        ..OracleConfig::new(1, 200)
    };
    let failure = run_oracle(&cfg).expect_err("stale arrangements must be caught");
    let dump = failure
        .dump_path
        .as_ref()
        .expect("an oracle failure must ship a flight-recorder dump");
    assert_eq!(dump.extension().and_then(|e| e.to_str()), Some("nfr"));

    let timeline = Timeline::load(std::slice::from_ref(dump)).unwrap();
    assert!(
        !timeline.dumps[0].reason.is_empty(),
        "the dump records why it was written"
    );

    // The traced commit's cross-plane story, causally ordered.
    let commit = timeline.filter_trace(trace);
    let kinds: Vec<&str> = commit.events.iter().map(|e| e.kind.as_str()).collect();
    let first = |kind: &str| {
        kinds
            .iter()
            .position(|k| *k == kind)
            .unwrap_or_else(|| panic!("no {kind} event for trace {trace:x}; got {kinds:?}"))
    };
    assert!(first("ovsdb.commit") < first("ddlog.apply"), "{kinds:?}");
    assert!(first("ddlog.apply") < first("shard.push"), "{kinds:?}");
    assert!(first("shard.push") < first("p4.write"), "{kinds:?}");
    for pair in commit.events.windows(2) {
        assert!(
            pair[0].seq < pair[1].seq,
            "merged timeline must preserve the causal sequence order"
        );
    }
    assert_eq!(
        commit.planes_crossed().first().map(String::as_str),
        Some("management"),
        "the trace starts at the ovsdb ack"
    );

    runtime.shutdown();
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// Convergence-lag e2e: every transaction committed through the TCP
/// management plane gets its lag recorded — including the ones
/// committed while a chaos proxy has severed one switch's control link
/// and until a fresh connection reconciles it back. The histograms are
/// exported globally and per shard, and `/convergence` serves the
/// recent settlements.
#[test]
fn convergence_lag_recorded_for_every_commit_under_chaos_reconnects() {
    let (_, program, nerpa_program) = snvs_program();

    // Switch 0 on a direct link; switch 1 (the victim) behind a chaos
    // proxy that kills its connection at the third protocol message.
    let device0 = SwitchDevice::new(Switch::new(program.clone()));
    let service0 = ControlService::start(device0.clone(), "127.0.0.1:0").unwrap();
    let device1 = SwitchDevice::new(Switch::new(program.clone()));
    let service1 = ControlService::start(device1.clone(), "127.0.0.1:0").unwrap();
    let schedule = FaultSchedule::scripted(
        0xF11C47,
        Framing::LengthPrefixed,
        vec![ConnFault::kill_after(3, Direction::ClientToServer)],
    );
    let proxy = FaultProxy::start(service1.local_addr(), schedule).unwrap();

    let switches: Vec<(usize, Box<dyn DataPlane>)> = vec![
        (
            0,
            Box::new(ControlClient::connect(service0.local_addr()).unwrap()),
        ),
        (
            1,
            Box::new(ControlClient::connect(proxy.local_addr()).unwrap()),
        ),
    ];
    let runtime = ShardRuntime::start(
        &nerpa_program,
        Router::new(PartitionSpec::snvs(), 2),
        switches,
    )
    .unwrap();

    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let db_server = ovsdb::Server::start(ovsdb::Database::new(schema), "127.0.0.1:0").unwrap();
    let monitor = ovsdb::Client::connect(db_server.local_addr()).unwrap();
    let (_initial, updates) = monitor
        .monitor("snvs", json!("lag"), json!({"Port": {}, "Switch": {}}))
        .unwrap();
    let admin = ovsdb::Client::connect(db_server.local_addr()).unwrap();

    let commit = |ops: serde_json::Value| -> u64 {
        admin.transact("snvs", ops).unwrap();
        let update = updates.recv_timeout(Duration::from_secs(5)).unwrap();
        let trace = trace_of(&update);
        runtime.handle_monitor_update(&update).unwrap();
        runtime.flush();
        trace
    };

    let mut traces = Vec::new();
    traces.push(commit(json!([
        {"op": "insert", "table": "Switch", "row": {"idx": 0}},
        {"op": "insert", "table": "Switch", "row": {"idx": 1}},
        {"op": "insert", "table": "Port", "row": {"id": 1, "vlan_mode": "access", "tag": 10}}
    ])));
    for id in [2u16, 3] {
        traces.push(commit(json!([
            {"op": "insert", "table": "Port",
             "row": {"id": id, "vlan_mode": "access", "tag": 10}}
        ])));
    }

    // By now the scripted kill has severed the victim's link; its shard
    // is degraded while the healthy shard keeps settling commits.
    let victim_shard = runtime.shard_of_switch(1);
    assert!(
        !runtime.dirty_switches(victim_shard).is_empty(),
        "the chaos kill must have dirtied the victim switch \
         (proxy stats: {:?})",
        proxy.stats()
    );

    // Chaos reconnect: a fresh direct connection replaces the severed
    // one and the shard reconciles; later commits settle on both shards.
    runtime
        .replace_switch(
            1,
            Box::new(ControlClient::connect(service1.local_addr()).unwrap()),
        )
        .unwrap();
    runtime.flush();
    assert!(runtime.dirty_switches(victim_shard).is_empty());
    for id in [4u16, 5] {
        traces.push(commit(json!([
            {"op": "insert", "table": "Port",
             "row": {"id": id, "vlan_mode": "access", "tag": 10}}
        ])));
    }

    // The property under test: every committed transaction has a
    // recorded convergence lag, outage or not.
    let telemetry = telemetry::global();
    for (i, trace) in traces.iter().enumerate() {
        assert!(
            telemetry.lag_of(*trace).is_some(),
            "transaction {i} (trace {trace:x}) has no recorded convergence lag"
        );
    }

    // Exported globally and per shard.
    let text = telemetry.registry.render_text();
    assert!(
        text.contains("nerpa_convergence_lag_ns_bucket{le="),
        "global convergence histogram missing"
    );
    assert!(
        text.contains("nerpa_convergence_lag_ns_bucket{shard=\"0\""),
        "per-shard convergence histogram missing:\n{text}"
    );

    // And visible on the live /convergence page.
    let server = telemetry::IntrospectionServer::start("127.0.0.1:0", telemetry.clone()).unwrap();
    let response = http_get(server.local_addr(), "/convergence");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    let page: serde_json::Value = serde_json::from_str(body).unwrap();
    assert!(
        page["settled"].as_u64().unwrap() >= traces.len() as u64,
        "{page}"
    );
    let recent: Vec<u64> = page["recent"]
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s["trace"].as_u64().unwrap())
        .collect();
    for trace in &traces {
        assert!(
            recent.contains(trace),
            "trace {trace:x} missing from /convergence recent table: {recent:?}"
        );
    }

    runtime.shutdown();
}
