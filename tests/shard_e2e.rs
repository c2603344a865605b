//! The sharded deployment over real sockets: four switches, each served
//! by its own control service, driven by a [`shard::ShardRuntime`] of
//! four engine shards. The scenario the sharded control plane exists
//! for: one switch dies mid-run and only its shard degrades — every
//! other shard keeps committing and pushing undisturbed — then the
//! switch comes back empty and per-shard reconciliation restores it
//! without touching the healthy shards.

use std::collections::BTreeSet;

use nerpa::codegen::CodegenOptions;
use nerpa::controller::{DataPlane, NerpaProgram};
use p4sim::runtime::Digest;
use p4sim::service::{ControlClient, ControlService, SwitchDevice};
use p4sim::Switch;
use serde_json::json;
use shard::{PartitionSpec, Router, ShardRuntime};

const SHARDS: usize = 4;
const VICTIM: usize = 2;

fn mac_digest(port: u16, mac: u64, vlan: u16) -> Digest {
    Digest {
        name: "mac_learn_t".into(),
        fields: vec![
            ("port".into(), port as u128),
            ("mac".into(), mac as u128),
            ("vlan".into(), vlan as u128),
        ],
    }
}

#[test]
fn sharded_pipeline_survives_single_switch_failure() {
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let program = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
    let nerpa_program = NerpaProgram {
        schema: schema.clone(),
        p4info: p4sim::P4Info::from_program(&program),
        rules: snvs::assets::SNVS_RULES.to_string(),
        options: CodegenOptions { per_switch: true },
    };

    // Four switch processes, each behind its own TCP control service.
    let mut devices = Vec::new();
    let mut services = Vec::new();
    let mut switches: Vec<(usize, Box<dyn DataPlane>)> = Vec::new();
    for sw in 0..SHARDS {
        let device = SwitchDevice::new(Switch::new(program.clone()));
        let service = ControlService::start(device.clone(), "127.0.0.1:0").unwrap();
        let client = ControlClient::connect(service.local_addr()).unwrap();
        switches.push((sw, Box::new(client)));
        devices.push(device);
        services.push(service);
    }
    let router = Router::new(PartitionSpec::snvs(), SHARDS);
    let runtime = ShardRuntime::start(&nerpa_program, router, switches).unwrap();

    // Register the switches and two ports through the management plane.
    // Port rows broadcast; each Switch row lands on its own shard.
    let mut db = ovsdb::Database::new(schema);
    let mut tx: Vec<serde_json::Value> = (0..SHARDS)
        .map(|sw| json!({"op": "insert", "table": "Switch", "row": {"idx": sw}}))
        .collect();
    for port in [1u16, 2] {
        tx.push(json!({"op": "insert", "table": "Port",
                       "row": {"id": port, "vlan_mode": "access", "tag": 10}}));
    }
    let (_, changes) = db.transact(&json!(tx));
    let trace = runtime.handle_row_changes(&changes).unwrap();
    runtime.flush();

    // Every switch got both port entries over its own socket, and every
    // shard's P4Runtime write carried the one trace id minted for the
    // commit — the fan-out must not orphan traces by minting per shard.
    assert_ne!(trace, 0);
    for (sw, device) in devices.iter().enumerate() {
        let n = device.with_switch(|s| s.read_table("InVlan").unwrap().len());
        assert_eq!(n, 2, "switch {sw} missing config entries");
        assert_eq!(
            device.last_write_trace(),
            Some(trace),
            "switch {sw}: shard write lost the commit's trace id"
        );
    }
    // The writer acked on every shard, so the commit's convergence lag
    // was recorded from the single begin anchor.
    assert!(
        telemetry::global().lag_of(trace).is_some(),
        "convergence lag must be recorded once the shard writers settle"
    );

    // Per-shard digest path: each switch learns one distinct MAC.
    for sw in 0..SHARDS {
        runtime
            .handle_digests(sw, vec![mac_digest(1, 0xAA00 + sw as u64, 10)])
            .unwrap();
    }
    runtime.flush();
    for (sw, device) in devices.iter().enumerate() {
        let macs = device.with_switch(|s| s.read_table("MacLearned").unwrap().to_vec());
        assert_eq!(macs.len(), 1, "switch {sw}: {macs:?}");
    }

    // One switch dies: stop its service and sever the connection.
    services[VICTIM].shutdown();

    // More management-plane traffic while the switch is down.
    let before: Vec<u64> = (0..SHARDS).map(|s| runtime.commits(s)).collect();
    let (_, changes) = db.transact(&json!([
        {"op": "insert", "table": "Port",
         "row": {"id": 3, "vlan_mode": "access", "tag": 20}}
    ]));
    runtime.handle_row_changes(&changes).unwrap();
    runtime.flush();

    // Every shard's engine kept committing — a dead switch on one shard
    // must not stall the others (or even its own commits; only its
    // pushes fail).
    for (s, &seen) in before.iter().enumerate() {
        assert!(runtime.commits(s) > seen, "shard {s} stalled");
        assert_eq!(runtime.commit_errors(s), 0, "shard {s} commit errors");
    }
    // Healthy switches installed the new entry; the dead one is flagged
    // dirty on its shard, and only there.
    for (sw, device) in devices.iter().enumerate() {
        let n = device.with_switch(|s| s.read_table("InVlan").unwrap().len());
        let want = if sw == VICTIM { 2 } else { 3 };
        assert_eq!(n, want, "switch {sw}");
    }
    let victim_shard = runtime.shard_of_switch(VICTIM);
    assert_eq!(
        runtime.dirty_switches(victim_shard),
        BTreeSet::from([VICTIM])
    );
    for s in (0..SHARDS).filter(|s| *s != victim_shard) {
        assert!(
            runtime.dirty_switches(s).is_empty(),
            "shard {s} wrongly dirty"
        );
    }

    // The switch comes back as a fresh, empty process on a new socket.
    // Replacing the data plane reconciles only its shard.
    let fresh = SwitchDevice::new(Switch::new(program.clone()));
    let service = ControlService::start(fresh.clone(), "127.0.0.1:0").unwrap();
    let client = ControlClient::connect(service.local_addr()).unwrap();
    runtime.replace_switch(VICTIM, Box::new(client)).unwrap();
    runtime.flush();
    services.push(service);

    // Reconciliation restored the full desired state — the three config
    // entries and the MAC its shard still holds for it.
    let n = fresh.with_switch(|s| s.read_table("InVlan").unwrap().len());
    assert_eq!(n, 3, "restarted switch missing config entries");
    let macs = fresh.with_switch(|s| s.read_table("MacLearned").unwrap().len());
    assert_eq!(macs, 1, "restarted switch missing learned MAC");
    assert!(runtime.dirty_switches(victim_shard).is_empty());

    // The introspection page (registered at startup) reflects the
    // sharded topology.
    let (content_type, body) = telemetry::global().render_page("/shards").unwrap();
    assert_eq!(content_type, "application/json");
    let page: serde_json::Value = serde_json::from_str(&body).unwrap();
    let shards = page["shards"].as_array().unwrap();
    assert_eq!(shards.len(), SHARDS);
    for (sw, entry) in shards.iter().enumerate() {
        assert_eq!(entry["shard"], json!(sw));
        assert_eq!(entry["switches"], json!([sw]));
        assert!(entry["commits"].as_u64().unwrap() > 0);
        assert_eq!(entry["dirty_switches"], json!([]));
    }

    runtime.shutdown();
}
