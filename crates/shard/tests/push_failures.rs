//! A shard writer reports a failed device push the same way whatever the
//! push asked of the device: a change that only reprograms flood groups,
//! on a device that rejects group programming, leaves a `shard.push`
//! then a `shard.write_error` naming the switch in the flight recorder,
//! a dirty switch, and no settlement for the change.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nerpa::codegen::CodegenOptions;
use nerpa::controller::{DataPlane, NerpaProgram};
use ovsdb::db::RowChange;
use p4sim::runtime::Update;
use p4sim::{Switch, SwitchDevice};
use serde_json::{json, Value as Json};
use shard::{PartitionSpec, Router, ShardRuntime};

const SWITCHES: usize = 2;

/// A device whose multicast programming fails once `reject` is set.
struct FloodRejecting {
    device: SwitchDevice,
    reject: Arc<AtomicBool>,
}

impl DataPlane for FloodRejecting {
    fn write_updates(&self, updates: &[Update]) -> Result<(), String> {
        self.device.write(updates)
    }

    fn set_mcast_group(&self, group: u16, ports: Vec<u16>) -> Result<(), String> {
        if self.reject.load(Ordering::SeqCst) {
            return Err(format!("group {group} rejected"));
        }
        self.device.set_mcast_group(group, ports);
        Ok(())
    }
}

fn transact(db: &mut ovsdb::Database, ops: Json) -> Vec<RowChange> {
    let (results, changes) = db.transact(&ops);
    let failed = results
        .as_array()
        .unwrap()
        .iter()
        .any(|r| r.get("error").is_some());
    assert!(!failed, "{results}");
    changes
}

#[test]
fn failed_group_only_push_is_recorded_and_leaves_the_switch_dirty() {
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let p4 = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
    let program = NerpaProgram {
        schema: schema.clone(),
        p4info: p4sim::P4Info::from_program(&p4),
        rules: snvs::assets::SNVS_RULES.to_string(),
        options: CodegenOptions { per_switch: true },
    };
    let reject = Arc::new(AtomicBool::new(false));
    let switches: Vec<(usize, Box<dyn DataPlane>)> = (0..SWITCHES)
        .map(|id| {
            let dp: Box<dyn DataPlane> = Box::new(FloodRejecting {
                device: SwitchDevice::new(Switch::new(p4.clone())),
                reject: reject.clone(),
            });
            (id, dp)
        })
        .collect();
    let runtime =
        ShardRuntime::start(&program, Router::new(PartitionSpec::snvs(), 1), switches).unwrap();
    let mut db = ovsdb::Database::new(schema);

    let setup = transact(
        &mut db,
        json!([
            {"op": "insert", "table": "Switch", "row": {"idx": 0}},
            {"op": "insert", "table": "Switch", "row": {"idx": 1}},
            {"op": "insert", "table": "Port",
             "row": {"id": 2, "vlan_mode": "trunk", "trunks": ["set", [10, 20]]}}
        ]),
    );
    runtime.handle_row_changes(&setup).unwrap();
    runtime.flush();
    assert!(runtime.dirty_switches(0).is_empty());

    // No MAC was learned on the trunk, so only its flood groups move.
    reject.store(true, Ordering::SeqCst);
    let trunk_set_change = transact(
        &mut db,
        json!([
            {"op": "update", "table": "Port", "where": [["id", "==", 2]],
             "row": {"trunks": ["set", [10, 30]]}}
        ]),
    );
    let trace = runtime.handle_row_changes(&trunk_set_change).unwrap();
    runtime.flush();

    // Every event of the change that names a switch, settlements included.
    let events = telemetry::global()
        .recorder
        .events_where(|e| e.trace == trace);
    for switch in 0..SWITCHES as u64 {
        let kinds: Vec<&str> = events
            .iter()
            .filter(|e| e.field("switch") == Some(switch))
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            ["shard.push", "shard.write_error"],
            "switch {switch}, trace {trace}"
        );
    }
    assert_eq!(runtime.dirty_switches(0), (0..SWITCHES).collect());
    assert!(telemetry::global().lag_of(trace).is_none());
    runtime.shutdown();
}
