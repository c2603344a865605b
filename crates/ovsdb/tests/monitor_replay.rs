//! Property tests of the monitor wire format. Replaying a monitor's
//! update stream against the initial state reconstructs the database
//! contents exactly — the invariant Nerpa's controller depends on for
//! state synchronization — and the one decoder of that format,
//! [`decode_table_updates`], inverts the encoder on every committed
//! change set and never panics on anything else.

use std::collections::BTreeMap;
use std::sync::Arc;

use ovsdb::{decode_table_updates, Database, Monitor, RowChange, RowData, Schema};
use proptest::prelude::*;
use serde_json::{json, Value as Json};

fn schema() -> Schema {
    Schema::from_json(&json!({
        "name": "t",
        "tables": {
            "Port": {"columns": {
                "name": {"type": "string"},
                "tag": {"type": {"key": "integer", "min": 0, "max": 1}},
                "up": {"type": "boolean"}
            }, "isRoot": true}
        }
    }))
    .unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(String, i64, bool),
    UpdateTag(String, i64),
    Delete(String),
    /// Modify every row with `tag < .0`: new tag and `up` flag. The
    /// name-keyed ops above rarely match a row; these two make modifies
    /// and deletes of several rows at once common.
    RetagBelow(i64, i64, bool),
    DeleteBelow(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let name = (0u8..5).prop_map(|n| format!("p{n}"));
    prop_oneof![
        (name.clone(), 0i64..100, any::<bool>()).prop_map(|(n, t, u)| Op::Insert(n, t, u)),
        (name.clone(), 0i64..100).prop_map(|(n, t)| Op::UpdateTag(n, t)),
        name.prop_map(Op::Delete),
        (0i64..100, 0i64..100, any::<bool>()).prop_map(|(b, t, u)| Op::RetagBelow(b, t, u)),
        (0i64..50).prop_map(Op::DeleteBelow),
    ]
}

/// Apply a table-updates JSON object to a shadow map keyed by row uuid.
fn replay(shadow: &mut BTreeMap<String, Json>, updates: &Json) {
    let Some(ports) = updates.get("Port").and_then(Json::as_object) else {
        return;
    };
    for (uuid, upd) in ports {
        match (upd.get("old"), upd.get("new")) {
            (None, Some(new)) => {
                shadow.insert(uuid.clone(), new.clone());
            }
            (Some(_), None) => {
                shadow.remove(uuid);
            }
            (Some(_), Some(new)) => {
                // `new` carries the full row for modifications.
                shadow.insert(uuid.clone(), new.clone());
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn monitor_stream_reconstructs_state(ops in proptest::collection::vec(op_strategy(), 1..30)) {
        let mut db = Database::new(schema());
        // Some initial rows so `initial` is non-trivial.
        db.transact(&json!([
            {"op": "insert", "table": "Port", "row": {"name": "seed", "tag": 1, "up": true}}
        ]));

        let monitor = Monitor::parse(&json!({"Port": {}}), &db).unwrap();
        let mut shadow: BTreeMap<String, Json> = BTreeMap::new();
        replay(&mut shadow, &monitor.initial_state(&db));

        for op in &ops {
            let (_, changes) = db.transact(&to_txn(op));
            if let Some(upd) = monitor.format_changes(&changes) {
                replay(&mut shadow, &upd);
            }
        }

        // The shadow must equal the database contents.
        prop_assert_eq!(shadow, db_contents(&db));
    }

    /// A monitor re-issued after a reconnect delivers a snapshot
    /// identical to the one a brand-new client would receive, and
    /// replacing a stale (outage-era) shadow with that snapshot heals
    /// every missed update.
    #[test]
    fn reissued_monitor_matches_fresh_client(
        before in proptest::collection::vec(op_strategy(), 0..15),
        missed in proptest::collection::vec(op_strategy(), 1..15),
    ) {
        let mut db = Database::new(schema());
        db.transact(&json!([
            {"op": "insert", "table": "Port", "row": {"name": "seed", "tag": 1, "up": true}}
        ]));

        // A connected client tracks the database...
        let monitor = Monitor::parse(&json!({"Port": {}}), &db).unwrap();
        let mut shadow: BTreeMap<String, Json> = BTreeMap::new();
        replay(&mut shadow, &monitor.initial_state(&db));
        for op in &before {
            let (_, changes) = db.transact(&to_txn(op));
            if let Some(upd) = monitor.format_changes(&changes) {
                replay(&mut shadow, &upd);
            }
        }

        // ...then the link drops: these transactions are never delivered.
        for op in &missed {
            db.transact(&to_txn(op));
        }

        // On reconnect the client re-issues the monitor request. Its
        // snapshot must be byte-identical to a fresh client's.
        let reissued = Monitor::parse(&json!({"Port": {}}), &db).unwrap();
        let fresh = Monitor::parse(&json!({"Port": {}}), &db).unwrap();
        let snapshot = reissued.initial_state(&db);
        prop_assert_eq!(&snapshot, &fresh.initial_state(&db));

        // Resync: replace the stale shadow with the snapshot contents.
        shadow.clear();
        replay(&mut shadow, &snapshot);
        prop_assert_eq!(shadow, db_contents(&db));
    }
}

/// The database's Port table as uuid → row-object JSON.
fn db_contents(db: &Database) -> BTreeMap<String, Json> {
    let mut actual: BTreeMap<String, Json> = BTreeMap::new();
    for (uuid, row) in db.rows("Port") {
        let mut obj = serde_json::Map::new();
        for (c, d) in row.iter() {
            obj.insert(c.clone(), d.to_json());
        }
        actual.insert(uuid.to_string(), Json::Object(obj));
    }
    actual
}

fn to_txn(op: &Op) -> Json {
    match op {
        Op::Insert(n, t, u) => json!([
            {"op": "insert", "table": "Port",
             "row": {"name": format!("{n}-{t}"), "tag": t, "up": u}}
        ]),
        Op::UpdateTag(n, t) => json!([
            {"op": "update", "table": "Port",
             "where": [["name", "==", format!("{n}-0")]], "row": {"tag": t}}
        ]),
        Op::Delete(n) => json!([
            {"op": "delete", "table": "Port",
             "where": [["name", "==", format!("{n}-0")]]}
        ]),
        Op::RetagBelow(below, t, u) => json!([
            {"op": "update", "table": "Port",
             "where": [["tag", "<", below]], "row": {"tag": t, "up": u}}
        ]),
        Op::DeleteBelow(below) => json!([
            {"op": "delete", "table": "Port", "where": [["tag", "<", below]]}
        ]),
    }
}

/// What a monitor reporting only `columns` may say about `changes`:
/// rows projected, and modifies that touch no reported column dropped.
/// Sorted by uuid (the wire format is a map, so order is not carried).
fn restricted(changes: &[RowChange], columns: Option<&[String]>) -> Vec<RowChange> {
    let project = |row: &Arc<RowData>| -> Arc<RowData> {
        let keep = |c: &String| columns.is_none_or(|cols| cols.contains(c));
        let kept = row.iter().filter(|(c, _)| keep(c));
        Arc::new(kept.map(|(c, d)| (c.clone(), d.clone())).collect())
    };
    let mut out: Vec<RowChange> = changes
        .iter()
        .map(|c| RowChange {
            old: c.old.as_ref().map(project),
            new: c.new.as_ref().map(project),
            ..c.clone()
        })
        .filter(|c| c.old != c.new)
        .collect();
    out.sort_by_key(|c| c.uuid);
    out
}

/// Decode `updates` as a client would: after a trip through the socket's
/// text form.
fn decode_sorted(updates: &Json, schema: &Schema) -> Vec<RowChange> {
    let wire: Json = serde_json::from_str(&updates.to_string()).unwrap();
    let mut changes = decode_table_updates(&wire, schema).unwrap().changes;
    changes.sort_by_key(|c| c.uuid);
    changes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode(format_changes(changes))` equals `changes` restricted to
    /// the monitored columns — inserts, deletes, and modifies, whose
    /// *full* old row is rebuilt from the changed columns the wire
    /// carries (a retag is what moves a row's routing key, and a router
    /// must see the old key as well as the new one) — and
    /// `decode(initial_state(db))` equals the table contents as inserts.
    #[test]
    fn decode_inverts_the_encoder(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        projected in any::<bool>(),
    ) {
        let mut db = Database::new(schema());
        db.transact(&json!([
            {"op": "insert", "table": "Port", "row": {"name": "seed", "tag": 1, "up": true}}
        ]));
        let request = if projected {
            json!({"Port": {"columns": ["name", "tag"]}})
        } else {
            json!({"Port": {}})
        };
        let monitor = Monitor::parse(&request, &db).unwrap();
        let columns = monitor.tables["Port"].columns.clone();

        for op in &ops {
            let (_, changes) = db.transact(&to_txn(op));
            let expected = restricted(&changes, columns.as_deref());
            match monitor.format_changes(&changes) {
                Some(upd) => prop_assert_eq!(decode_sorted(&upd, db.schema()), expected),
                None => prop_assert!(expected.is_empty(), "encoder dropped {:?}", expected),
            }
        }

        let contents: Vec<RowChange> = db
            .rows("Port")
            .map(|(uuid, row)| RowChange {
                table: "Port".to_string(),
                uuid: *uuid,
                old: None,
                new: Some(row.clone()),
            })
            .collect();
        prop_assert_eq!(
            decode_sorted(&monitor.initial_state(&db), db.schema()),
            restricted(&contents, columns.as_deref())
        );
    }

    /// Untrusted input: whatever JSON arrives, the decoder returns — a
    /// value or an error that says something — and never panics. The
    /// generator speaks the format's vocabulary (table and trace keys,
    /// well-formed uuids, `old`/`new`, column names, set/map/uuid
    /// encodings) so it reaches deep into the decoder, not just its
    /// first shape check.
    #[test]
    fn decode_never_panics_on_arbitrary_json(tape in proptest::collection::vec(any::<u8>(), 0..96)) {
        let mut tape = tape.into_iter();
        let value = arbitrary_json(&mut tape, 0);
        match decode_table_updates(&value, &schema()) {
            Ok(decoded) => {
                for c in &decoded.changes {
                    prop_assert!(c.old.is_some() || c.new.is_some(), "empty change from {}", value);
                }
            }
            Err(e) => prop_assert!(!e.is_empty(), "silent error on {}", value),
        }
    }
}

/// A JSON value read off a byte tape, biased towards the monitor
/// format's own keys and encodings.
fn arbitrary_json(tape: &mut dyn Iterator<Item = u8>, depth: usize) -> Json {
    const KEYS: [&str; 12] = [
        "Port",
        "__trace",
        "old",
        "new",
        "name",
        "tag",
        "up",
        "_uuid",
        "id",
        "commit_ns",
        "00000000-0000-0000-0000-00000000002a",
        "zz",
    ];
    let next = |tape: &mut dyn Iterator<Item = u8>| tape.next().unwrap_or(0);
    match next(tape) % if depth < 5 { 12 } else { 6 } {
        0 => Json::Null,
        1 => json!(next(tape) % 2 == 0),
        2 => json!(next(tape) as i64 - 100),
        3 => json!(KEYS[next(tape) as usize % KEYS.len()]),
        4 => json!(f64::from(next(tape)) / 7.0),
        5 => json!(u64::MAX - u64::from(next(tape))),
        6 => json!([
            "set",
            [
                arbitrary_json(tape, depth + 1),
                arbitrary_json(tape, depth + 1)
            ]
        ]),
        7 => json!([
            "map",
            [[
                arbitrary_json(tape, depth + 1),
                arbitrary_json(tape, depth + 1)
            ]]
        ]),
        8 => json!(["uuid", arbitrary_json(tape, depth + 1)]),
        9 => {
            let n = next(tape) % 4;
            Json::Array((0..n).map(|_| arbitrary_json(tape, depth + 1)).collect())
        }
        _ => {
            let n = next(tape) % 4;
            let mut obj = serde_json::Map::new();
            for _ in 0..n {
                let key = KEYS[next(tape) as usize % KEYS.len()];
                obj.insert(key.to_string(), arbitrary_json(tape, depth + 1));
            }
            Json::Object(obj)
        }
    }
}

/// Each way a `table-updates` object can be malformed is an `Err` that
/// names what was wrong.
#[test]
fn decode_names_what_is_malformed() {
    let uuid = "00000000-0000-0000-0000-00000000002a";
    let cases = [
        (json!([1, 2]), "table-updates must be an object"),
        (json!({"Port": [1]}), "Port: row updates must be an object"),
        (json!({"Port": {"not-a-uuid": {"new": {}}}}), "bad row uuid"),
        (json!({"Port": {uuid: {}}}), "neither old nor new"),
        (json!({"Port": {uuid: 7}}), "neither old nor new"),
        (
            json!({"Port": {uuid: {"new": 7}}}),
            "Port: row must be an object",
        ),
        (json!({"Port": {uuid: {"new": {"tag": "ten"}}}}), "Port.tag"),
        (
            json!({"Port": {uuid: {"old": {"tag": ["set", 3]}}}}),
            "Port.tag",
        ),
        (
            json!({"Port": {uuid: {"new": {"up": ["map", []]}}}}),
            "Port.up",
        ),
        (json!({"__trace": 5}), "__trace"),
        (json!({"__trace": {"commit_ns": 5}}), "__trace"),
    ];
    for (input, needle) in cases {
        let err = decode_table_updates(&input, &schema()).expect_err(&input.to_string());
        assert!(
            err.contains(needle),
            "{input}: error {err:?} lacks {needle:?}"
        );
    }
    // Not malformed: unknown tables and unknown columns are skipped, the
    // trace is optional, and its commit time defaults to 0.
    let ok = json!({
        "Mystery": 7,
        "Port": {uuid: {"new": {"name": "p", "zz": 1, "_uuid": ["uuid", uuid]}}},
        "__trace": {"id": 9},
    });
    let decoded = decode_table_updates(&ok, &schema()).unwrap();
    assert_eq!(decoded.trace, Some((9, 0)));
    assert_eq!(decoded.changes.len(), 1);
    assert_eq!(decoded.changes[0].new.as_ref().unwrap().len(), 1);
}
