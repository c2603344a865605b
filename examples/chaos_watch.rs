//! Watch the stack heal itself, live.
//!
//! Runs the full TCP deployment — an OVSDB server, a P4 switch service,
//! and a supervised controller dialing the database through a chaos
//! proxy — then churns the management plane forever while periodically
//! partitioning the OVSDB link. The introspection endpoint stays up the
//! whole time:
//!
//! ```text
//! cargo run --example chaos_watch
//! curl http://127.0.0.1:9090/metrics    # Prometheus text
//! curl http://127.0.0.1:9090/traces     # recent cross-plane span trees
//! curl http://127.0.0.1:9090/health     # 503 while the link is down
//! ```
//!
//! Stop with Ctrl-C. Set `NERPA_LOG=info` to narrate reconnects,
//! resyncs and reconciles on stderr: each line is the recorded event
//! (`resync.reconnect`, `controller.resync`, ...) as a `.nfr` line.

use std::thread;
use std::time::Duration;

use chaos::{FaultProxy, FaultSchedule, Framing};
use nerpa::codegen::CodegenOptions;
use nerpa::controller::{Controller, NerpaProgram};
use nerpa::resync::{BackoffPolicy, MonitorConfig, OvsdbSupervisor};
use p4sim::service::{ControlClient, ControlService, SwitchDevice};
use p4sim::Switch;
use serde_json::json;

fn main() {
    // Management plane.
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).expect("schema");
    let db_server =
        ovsdb::Server::start(ovsdb::Database::new(schema.clone()), "127.0.0.1:0").expect("ovsdb");
    let admin = ovsdb::Client::connect(db_server.local_addr()).expect("admin");
    admin
        .transact(
            "snvs",
            json!([{"op": "insert", "table": "Switch", "row": {"idx": 0}}]),
        )
        .expect("seed switch");

    // The chaos proxy sits on the OVSDB link; faults are injected from
    // the main loop below rather than scripted per connection.
    let schedule = FaultSchedule::transparent(0xC0FFEE, Framing::Ndjson);
    let proxy = FaultProxy::start(db_server.local_addr(), schedule).expect("proxy");

    // Data plane + controller.
    let program = p4sim::parse_p4(snvs::assets::SNVS_P4).expect("p4");
    let device = SwitchDevice::new(Switch::new(program.clone()));
    let p4_service = ControlService::start(device.clone(), "127.0.0.1:0").expect("p4 service");
    let nerpa_program = NerpaProgram {
        schema,
        p4info: p4sim::P4Info::from_program(&program),
        rules: snvs::assets::SNVS_RULES.to_string(),
        options: CodegenOptions { per_switch: true },
    };
    let mut controller = Controller::new(&nerpa_program).expect("controller");
    controller.add_switch(Box::new(
        ControlClient::connect(p4_service.local_addr()).expect("p4 client"),
    ));

    // Live introspection, on a stable port for curl.
    let endpoint = controller
        .serve_introspection("127.0.0.1:9090")
        .expect("introspection endpoint");
    println!("introspection: http://{}/metrics", endpoint.local_addr());
    println!("               http://{}/traces", endpoint.local_addr());
    println!("               http://{}/health", endpoint.local_addr());
    println!("               http://{}/dataflow", endpoint.local_addr());

    // The supervised controller runs on its own thread, dialing through
    // the proxy, reconnecting and resyncing whenever we cut the link.
    let mut supervisor = OvsdbSupervisor::new(
        proxy.local_addr(),
        MonitorConfig::all_columns("snvs", &["Port", "Switch"]),
        BackoffPolicy {
            base: Duration::from_millis(100),
            max: Duration::from_secs(2),
            multiplier: 2.0,
            max_attempts: 10_000,
            jitter: 0.2,
            seed: 7,
        },
    )
    .expect("supervisor");
    let (_stop_tx, stop_rx) = crossbeam_channel::bounded::<()>(0);
    thread::spawn(move || {
        if let Err(e) = controller.run_supervised(&mut supervisor, Vec::new(), stop_rx) {
            eprintln!("controller exited: {e}");
        }
    });

    // Churn the management plane forever; every 8th round, cut the link
    // mid-churn so /health flips and the resync series move.
    let mut round: u64 = 0;
    loop {
        round += 1;
        let id = 1 + (round % 32) as u16;
        let vlan = 10 + (round % 4) as u16;
        admin
            .transact(
                "snvs",
                json!([
                    {"op": "delete", "table": "Port", "where": [["id", "==", id]]},
                    {"op": "insert", "table": "Port",
                     "row": {"id": id, "vlan_mode": "access", "tag": vlan}}
                ]),
            )
            .expect("churn");
        if round.is_multiple_of(8) {
            println!("round {round}: partitioning the OVSDB link for 3s");
            proxy.partition_for(Duration::from_secs(3));
            proxy.sever_all();
        }
        thread::sleep(Duration::from_millis(500));
    }
}
