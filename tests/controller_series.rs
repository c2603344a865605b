//! The `controller_*` series are process-wide: every controller in the
//! process, each shard's included, adds into the one series `/metrics`
//! shows. In a file of its own, so no other test's controllers add to
//! the series while this one reads it.

use nerpa::codegen::CodegenOptions;
use nerpa::controller::{DataPlane, NerpaProgram};
use p4sim::service::SwitchDevice;
use p4sim::Switch;
use serde_json::{json, Value as Json};
use shard::{PartitionSpec, Router, ShardRuntime};

#[test]
fn every_shard_controller_counts_into_the_one_series() {
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let p4 = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
    let program = NerpaProgram {
        schema: schema.clone(),
        p4info: p4sim::P4Info::from_program(&p4),
        rules: snvs::assets::SNVS_RULES.to_string(),
        options: CodegenOptions { per_switch: true },
    };
    let switches: Vec<(usize, Box<dyn DataPlane>)> = (0..2)
        .map(|id| {
            let dp: Box<dyn DataPlane> = Box::new(SwitchDevice::new(Switch::new(p4.clone())));
            (id, dp)
        })
        .collect();
    let runtime =
        ShardRuntime::start(&program, Router::new(PartitionSpec::snvs(), 2), switches).unwrap();
    assert_eq!(runtime.shard_of_switch(0), 0);
    assert_eq!(runtime.shard_of_switch(1), 1);

    let registry = &telemetry::global().registry;
    let transactions = || registry.value("controller_transactions_total").unwrap();
    let commits = || [runtime.commits(0), runtime.commits(1)];
    let (total_before, shards_before) = (transactions(), commits());

    // Each switch row goes to its own shard and a port row to both, so
    // both shards commit.
    let mut db = ovsdb::Database::new(schema);
    let mut commit = |ops: Json| {
        let (_, changes) = db.transact(&ops);
        runtime.handle_row_changes(&changes).unwrap();
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
    runtime.flush();

    let shards_after = commits();
    let per_shard: Vec<u64> = (0..2).map(|s| shards_after[s] - shards_before[s]).collect();
    assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
    assert_eq!(
        transactions() - total_before,
        per_shard.iter().sum::<u64>(),
        "the series misses a shard's commits: per shard {per_shard:?}"
    );
    runtime.shutdown();
}
