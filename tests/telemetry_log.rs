//! A log line is a recorded event, printed when its kind's level is
//! within `NERPA_LOG`. At the default level (`warn`) the
//! per-transaction hot path — OVSDB commit → DDlog apply → P4 write —
//! prints nothing: its kinds are `debug`, and the check is one atomic
//! load. Widening the level makes the same path print its events, and a
//! failure prints its one `warn` event at the default level.
//!
//! The checks share the process-wide level and capture sink, so they
//! take turns.

use std::sync::Mutex;

use nerpa::codegen::CodegenOptions;
use nerpa::controller::{DataPlane, NerpaProgram};
use p4sim::runtime::Update;
use serde_json::json;
use shard::{PartitionSpec, Router, ShardRuntime};
use telemetry::log::{capture, max_level, records_emitted, set_level, Level, DEFAULT_LEVEL};

static TURN: Mutex<()> = Mutex::new(());

#[test]
fn hot_path_is_silent_at_default_level() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Pin the default level explicitly so a NERPA_LOG in the test
    // environment cannot widen it.
    set_level(DEFAULT_LEVEL);
    assert_eq!(max_level(), Level::Warn);

    let mut stack = snvs::SnvsStack::new(1).expect("stack");
    let before = records_emitted();
    let ((), lines) = capture(|| {
        for i in 0..50u16 {
            stack
                .add_port(i, snvs::PortMode::Access(10 + (i % 8)), None)
                .expect("add port");
        }
    });
    assert_eq!(
        records_emitted(),
        before,
        "hot path printed events at the default level: {lines:?}"
    );
    assert!(lines.is_empty(), "{lines:?}");

    // The same path prints its per-transaction events once debug is on.
    set_level(Level::Debug);
    let ((), lines) = capture(|| {
        stack
            .add_port(100, snvs::PortMode::Access(10), None)
            .expect("add port");
    });
    set_level(DEFAULT_LEVEL);
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("DEBUG {") && l.contains("\"kind\":\"ddlog.apply\"")),
        "expected a ddlog.apply line, got {lines:?}"
    );
}

/// A switch whose every device call fails.
struct Unplugged;

impl DataPlane for Unplugged {
    fn write_updates(&self, _: &[Update]) -> Result<(), String> {
        Err("device unplugged".to_string())
    }

    fn set_mcast_group(&self, _: u16, _: Vec<u16>) -> Result<(), String> {
        Err("device unplugged".to_string())
    }
}

#[test]
fn a_failed_shard_push_prints_one_warn_line() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    set_level(DEFAULT_LEVEL);
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let p4 = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
    let program = NerpaProgram {
        schema: schema.clone(),
        p4info: p4sim::P4Info::from_program(&p4),
        rules: snvs::assets::SNVS_RULES.to_string(),
        options: CodegenOptions { per_switch: true },
    };
    let switches: Vec<(usize, Box<dyn DataPlane>)> = vec![(3, Box::new(Unplugged))];
    let runtime =
        ShardRuntime::start(&program, Router::new(PartitionSpec::snvs(), 1), switches).unwrap();
    let mut db = ovsdb::Database::new(schema);
    let ((), lines) = capture(|| {
        let (_, changes) = db.transact(&json!([
            {"op": "insert", "table": "Switch", "row": {"idx": 3}},
            {"op": "insert", "table": "Port",
             "row": {"id": 1, "vlan_mode": "access", "tag": 10}}
        ]));
        runtime.handle_row_changes(&changes).unwrap();
        runtime.flush();
    });
    runtime.shutdown();
    assert_eq!(lines.len(), 1, "{lines:?}");
    let line = &lines[0];
    assert!(line.starts_with("WARN {"), "{line}");
    for part in [
        "\"kind\":\"shard.write_error\"",
        "\"shard\":0",
        "\"switch\":3",
        "device unplugged",
    ] {
        assert!(line.contains(part), "{part} missing from {line}");
    }
}
