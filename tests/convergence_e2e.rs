//! Convergence is recorded once per switch per change, after the last
//! device call the change made there: a change that only reprograms
//! flood groups settles too, and a change that writes table entries and
//! groups settles once, not once per call. Checked on the inline path
//! (an unsharded controller driving devices directly) and through the
//! shard runtime's writers at 1 and 2 shards.

use std::collections::BTreeMap;

use nerpa::codegen::CodegenOptions;
use nerpa::controller::{Controller, DataPlane, NerpaProgram, TraceCtx};
use ovsdb::db::RowChange;
use p4sim::service::SwitchDevice;
use p4sim::Switch;
use serde_json::{json, Value as Json};
use shard::{PartitionSpec, Router, ShardRuntime};

const SWITCHES: usize = 2;

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

/// Switch id → `convergence.settled` events recorded for `trace`.
fn settles(trace: u64) -> BTreeMap<u64, usize> {
    let mut out = BTreeMap::new();
    for e in telemetry::global()
        .recorder
        .events_where(|e| e.trace == trace && e.kind == "convergence.settled")
    {
        *out.entry(e.field("switch").expect("settle names its switch"))
            .or_insert(0) += 1;
    }
    out
}

/// The management-plane history every run replays: two switches, an
/// access port and a trunk, then the two changes under test.
struct Db(ovsdb::Database);

impl Db {
    fn new(schema: ovsdb::Schema) -> Db {
        Db(ovsdb::Database::new(schema))
    }

    fn transact(&mut self, ops: Json) -> Vec<RowChange> {
        let (results, changes) = self.0.transact(&ops);
        assert!(
            results
                .as_array()
                .unwrap()
                .iter()
                .all(|r| r.get("error").is_none()),
            "{results}"
        );
        changes
    }

    fn setup(&mut self) -> Vec<RowChange> {
        self.transact(json!([
            {"op": "insert", "table": "Switch", "row": {"idx": 0}},
            {"op": "insert", "table": "Switch", "row": {"idx": 1}},
            {"op": "insert", "table": "Port",
             "row": {"id": 1, "vlan_mode": "access", "tag": 10}},
            {"op": "insert", "table": "Port",
             "row": {"id": 2, "vlan_mode": "trunk", "trunks": ["set", [10, 20]]}}
        ]))
    }

    /// Only `PortVlan`, hence only `MulticastGroup`, moves: no MAC was
    /// learned on the trunk.
    fn trunk_set_change(&mut self) -> Vec<RowChange> {
        self.transact(json!([
            {"op": "update", "table": "Port", "where": [["id", "==", 2]],
             "row": {"trunks": ["set", [10, 30]]}}
        ]))
    }

    /// Table entries and flood groups move together.
    fn vlan_move(&mut self) -> Vec<RowChange> {
        self.transact(json!([
            {"op": "update", "table": "Port", "where": [["id", "==", 1]],
             "row": {"tag": 20}}
        ]))
    }
}

fn assert_settled_once_per_switch(what: &str, trace: u64) {
    let want: BTreeMap<u64, usize> = (0..SWITCHES as u64).map(|s| (s, 1)).collect();
    assert_eq!(settles(trace), want, "{what} (trace {trace})");
    assert!(
        telemetry::global().lag_of(trace).is_some(),
        "{what}: no convergence lag recorded"
    );
}

#[test]
fn inline_writes_settle_once_per_switch() {
    let (schema, p4, program) = program();
    let mut controller = Controller::new(&program).unwrap();
    let devices: Vec<SwitchDevice> = (0..SWITCHES)
        .map(|_| SwitchDevice::new(Switch::new(p4.clone())))
        .collect();
    for d in &devices {
        controller.add_switch(Box::new(d.clone()));
    }
    let mut db = Db::new(schema);
    let mut commit = |changes: Vec<RowChange>| {
        let ctx = TraceCtx::minted("test");
        controller.ingest_changes(&changes, ctx).unwrap();
        ctx.id()
    };
    commit(db.setup());
    let trunk = commit(db.trunk_set_change());
    assert_settled_once_per_switch("trunk-set change", trunk);
    let moved = commit(db.vlan_move());
    assert_settled_once_per_switch("VLAN move", moved);
    for d in &devices {
        let groups = d.mcast_snapshot();
        assert!(
            groups.get(&30).is_some_and(|g| g.contains(&2)),
            "{groups:?}"
        );
        assert!(
            groups.get(&20).is_some_and(|g| g.contains(&1)),
            "{groups:?}"
        );
    }
}

fn runtime_settles_once_per_switch(shards: usize) {
    let (schema, p4, program) = program();
    let switches: Vec<(usize, Box<dyn DataPlane>)> = (0..SWITCHES)
        .map(|id| {
            let dp: Box<dyn DataPlane> = Box::new(SwitchDevice::new(Switch::new(p4.clone())));
            (id, dp)
        })
        .collect();
    let runtime = ShardRuntime::start(
        &program,
        Router::new(PartitionSpec::snvs(), shards),
        switches,
    )
    .unwrap();
    let mut db = Db::new(schema);
    let commit = |changes: Vec<RowChange>| {
        let trace = runtime.handle_row_changes(&changes).unwrap();
        runtime.flush();
        trace
    };
    commit(db.setup());
    let trunk = commit(db.trunk_set_change());
    assert_settled_once_per_switch(&format!("{shards} shard(s): trunk-set change"), trunk);
    let moved = commit(db.vlan_move());
    assert_settled_once_per_switch(&format!("{shards} shard(s): VLAN move"), moved);
    runtime.shutdown();
}

#[test]
fn one_shard_writer_settles_once_per_switch() {
    runtime_settles_once_per_switch(1);
}

#[test]
fn two_shard_writers_settle_once_per_switch() {
    runtime_settles_once_per_switch(2);
}
