//! Cross-plane telemetry acceptance: one OVSDB transaction travels the
//! full TCP stack (OVSDB server → monitor → controller → P4Runtime
//! service) and its trace id minted at commit time must be visible on
//! the resulting P4 write, with non-zero timings recorded for every
//! plane it crossed. The live introspection endpoint must expose the
//! metrics behind the run as well-formed Prometheus text.

use std::time::Duration;

use fullstack_sdn::flight::Timeline;
use nerpa::codegen::CodegenOptions;
use nerpa::controller::{Controller, NerpaProgram};
use p4sim::service::{ControlClient, ControlService, SwitchDevice};
use p4sim::Switch;
use serde_json::json;

/// One management-plane transaction over the full TCP stack (OVSDB
/// server → monitor → controller → P4Runtime service). Returns the
/// trace id the server minted at commit time and the switch device.
fn traced_tcp_commit() -> (u64, SwitchDevice) {
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let db_server =
        ovsdb::Server::start(ovsdb::Database::new(schema.clone()), "127.0.0.1:0").unwrap();

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
    let p4_client = ControlClient::connect(p4_service.local_addr()).unwrap();
    controller.add_switch(Box::new(p4_client));

    let monitor_client = ovsdb::Client::connect(db_server.local_addr()).unwrap();
    let (initial, updates) = monitor_client
        .monitor("snvs", json!("nerpa"), json!({"Port": {}, "Switch": {}}))
        .unwrap();
    controller.handle_monitor_update(&initial).unwrap();

    // One management-plane transaction: register the switch and add a
    // port. The server mints a trace id when this commits.
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

    // The monitor update carries the trace context over the wire.
    let update = updates
        .recv_timeout(Duration::from_secs(5))
        .expect("monitor update");
    let minted = update
        .get(ovsdb::TRACE_KEY)
        .and_then(|t| t.get("id"))
        .and_then(|id| id.as_u64())
        .expect("monitor update must carry the commit's trace id");
    controller.handle_monitor_update(&update).unwrap();
    (minted, device)
}

#[test]
fn trace_id_flows_from_ovsdb_commit_to_p4_write() {
    let (minted, device) = traced_tcp_commit();

    // The entry landed in the data plane...
    let entries = device.with_switch(|sw| sw.read_table("InVlan").unwrap().len());
    assert_eq!(entries, 1);

    // ...and the P4Runtime write that installed it carried the same
    // trace id that was minted at the OVSDB commit.
    assert_eq!(
        device.last_write_trace(),
        Some(minted),
        "the P4 write must carry the commit's trace id"
    );

    // The span tree derived from the trace's events times every plane
    // the change crossed.
    let tree = telemetry::global()
        .trace(minted)
        .expect("the trace's events must be in the flight recorder");
    for plane in ["management", "control", "data"] {
        assert!(
            tree.plane_duration_ns(plane) > 0,
            "plane {plane} must have a non-zero duration:\n{}",
            tree.render_text()
        );
    }
    assert!(tree.find_span("ovsdb.commit").is_some());
    assert!(tree.find_span("ddlog.apply").is_some());
    assert!(tree.find_span("p4.write").is_some());
}

/// One derivation, two sources: the tree the live recorder yields for a
/// traced commit is the tree `nerpa flight` derives from its dump.
#[test]
fn live_recorder_and_its_dump_derive_the_same_tree() {
    let (minted, _device) = traced_tcp_commit();
    let dump = telemetry::global().recorder.render_dump("telemetry_e2e");
    let live = telemetry::global()
        .trace(minted)
        .expect("the trace's events must be in the flight recorder");
    let mut timeline = Timeline::default();
    timeline.push_dump("live.nfr", &dump).unwrap();
    timeline.sort();
    assert_eq!(timeline.span_tree(minted), Some(live.clone()));
    assert!(
        live.find_span("p4.write").is_some(),
        "{}",
        live.render_text()
    );
}

#[test]
fn introspection_endpoint_exposes_all_three_planes() {
    // Drive a small stack in-process so every plane registers series.
    let mut stack = snvs::SnvsStack::new(1).expect("stack");
    for i in 0..4u16 {
        stack
            .add_port(i, snvs::PortMode::Access(10), None)
            .expect("add port");
    }
    // Exercise the TCP planes too: one OVSDB server round-trip and one
    // P4Runtime service write.
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let server = ovsdb::Server::start(ovsdb::Database::new(schema), "127.0.0.1:0").unwrap();
    let client = ovsdb::Client::connect(server.local_addr()).unwrap();
    client
        .transact(
            "snvs",
            json!([{"op": "insert", "table": "Switch", "row": {"idx": 0}}]),
        )
        .unwrap();

    let mut endpoint = stack
        .controller
        .serve_introspection("127.0.0.1:0")
        .expect("endpoint");
    let (status, body) = telemetry::http_get(endpoint.local_addr(), "/metrics").unwrap();
    assert!(status.contains("200"), "{status}");
    telemetry::validate_exposition(&body).expect("exposition must be well-formed");

    // The dataflow profiler's series are live on /metrics...
    for series in [
        "ddlog_op_tuples_in_total",
        "ddlog_op_tuples_out_total",
        "ddlog_op_wall_ns_total",
        "ddlog_state_bytes",
    ] {
        assert!(body.contains(series), "missing {series} in exposition");
    }

    // ...and /dataflow serves the compiled plan with per-operator costs.
    let (status, dataflow) = telemetry::http_get(endpoint.local_addr(), "/dataflow").unwrap();
    assert!(status.contains("200"), "{status}");
    assert!(
        dataflow.contains("\"schema\":\"nerpa.dataflow.v1\""),
        "{dataflow}"
    );
    assert!(dataflow.contains("\"kind\":\"join\""), "{dataflow}");
    // The snapshot reflects commits made while the endpoint is up.
    let before = stack
        .controller
        .engine()
        .cumulative_profile()
        .total_tuples();
    stack
        .add_port(9, snvs::PortMode::Access(11), None)
        .expect("add port");
    let (_, dataflow) = telemetry::http_get(endpoint.local_addr(), "/dataflow").unwrap();
    let after = stack
        .controller
        .engine()
        .cumulative_profile()
        .total_tuples();
    assert!(after > before, "commit must add dataflow work");
    assert!(
        dataflow.contains(&format!("\"total_tuples\":{after}")),
        "snapshot stale: want total_tuples {after} in {dataflow}"
    );

    // At least 12 distinct named series spanning all three planes.
    let names = telemetry::global().registry.series_names();
    assert!(names.len() >= 12, "only {} series: {names:?}", names.len());
    for prefix in ["ovsdb_", "ddlog_", "p4_", "controller_"] {
        assert!(
            names.iter().any(|n| n.starts_with(prefix)),
            "no {prefix}* series in {names:?}"
        );
    }

    // The health board reports the registered switch.
    let (status, health) = telemetry::http_get(endpoint.local_addr(), "/health").unwrap();
    assert!(status.contains("200"), "{status}: {health}");
    assert!(health.contains("switch/0"), "{health}");

    // Traces are served too.
    let (status, traces) = telemetry::http_get(endpoint.local_addr(), "/traces").unwrap();
    assert!(status.contains("200"), "{status}");
    assert!(traces.contains("stack.change"), "{traces}");
    endpoint.shutdown();
}
