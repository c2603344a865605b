//! Integration tests for the OVSDB database core: operations, atomicity,
//! constraints, referential integrity, and garbage collection.

use ovsdb::datum::{Atom, Datum, Uuid};
use ovsdb::db::Database;
use ovsdb::schema::Schema;
use serde_json::{json, Value as Json};

fn simple_db() -> Database {
    let schema = Schema::from_json(&json!({
        "name": "net",
        "tables": {
            "Port": {
                "columns": {
                    "name": {"type": "string"},
                    "tag": {"type": {"key": {"type": "integer",
                        "minInteger": 0, "maxInteger": 4095}, "min": 0, "max": 1}},
                    "trunks": {"type": {"key": "integer", "min": 0, "max": "unlimited"}},
                    "options": {"type": {"key": "string", "value": "string",
                        "min": 0, "max": "unlimited"}}
                },
                "isRoot": true,
                "indexes": [["name"]]
            }
        }
    }))
    .unwrap();
    Database::new(schema)
}

/// Schema with strong references and a GC-able (non-root) table.
fn ref_db() -> Database {
    let schema = Schema::from_json(&json!({
        "name": "refs",
        "tables": {
            "Bridge": {
                "columns": {
                    "name": {"type": "string"},
                    "ports": {"type": {"key": {"type": "uuid", "refTable": "Port"},
                              "min": 0, "max": "unlimited"}}
                },
                "isRoot": true
            },
            "Port": {
                "columns": {
                    "name": {"type": "string"},
                    "peer": {"type": {"key": {"type": "uuid", "refTable": "Port",
                              "refType": "weak"}, "min": 0, "max": 1}}
                }
            }
        }
    }))
    .unwrap();
    Database::new(schema)
}

fn uuid_of(result: &Json) -> Uuid {
    Uuid::parse(result["uuid"][1].as_str().unwrap()).unwrap()
}

#[test]
fn insert_select_roundtrip() {
    let mut db = simple_db();
    let (res, changes) = db.transact(&json!([
        {"op": "insert", "table": "Port",
         "row": {"name": "p1", "tag": 7, "trunks": ["set", [1, 2, 3]],
                 "options": ["map", [["speed", "10g"]]]}},
        {"op": "select", "table": "Port", "where": [["name", "==", "p1"]]}
    ]));
    assert_eq!(changes.len(), 1);
    let rows = res[1]["rows"].as_array().unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0]["tag"], json!(7));
    assert_eq!(rows[0]["trunks"], json!(["set", [1, 2, 3]]));
    assert_eq!(rows[0]["options"], json!(["map", [["speed", "10g"]]]));
    // Defaults: unspecified optional column comes back empty.
    let (res, _) = db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "p2"}},
        {"op": "select", "table": "Port", "where": [["name", "==", "p2"]],
         "columns": ["tag"]}
    ]));
    assert_eq!(res[1]["rows"][0]["tag"], json!(["set", []]));
}

#[test]
fn atomicity_on_mid_transaction_failure() {
    let mut db = simple_db();
    let (res, changes) = db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "good"}},
        {"op": "insert", "table": "Port", "row": {"name": "bad", "tag": 9999}}
    ]));
    assert!(changes.is_empty(), "failed txn must commit nothing");
    assert!(res[1]["error"].is_string(), "{res}");
    assert_eq!(db.table_len("Port"), 0);
}

#[test]
fn abort_operation() {
    let mut db = simple_db();
    let (_, changes) = db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "x"}},
        {"op": "abort"}
    ]));
    assert!(changes.is_empty());
    assert_eq!(db.table_len("Port"), 0);
}

#[test]
fn update_and_mutate() {
    let mut db = simple_db();
    db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "p", "tag": 5,
            "trunks": ["set", [10]]}}
    ]));
    // update
    let (res, changes) = db.transact(&json!([
        {"op": "update", "table": "Port", "where": [["name", "==", "p"]],
         "row": {"tag": 6}}
    ]));
    assert_eq!(res[0]["count"], json!(1));
    assert_eq!(changes.len(), 1);
    // mutate: arithmetic and set insert/delete
    let (res, _) = db.transact(&json!([
        {"op": "mutate", "table": "Port", "where": [],
         "mutations": [["tag", "+=", 10],
                       ["trunks", "insert", ["set", [20, 30]]],
                       ["trunks", "delete", ["set", [10]]]]},
        {"op": "select", "table": "Port", "where": []}
    ]));
    assert_eq!(res[1]["rows"][0]["tag"], json!(16));
    assert_eq!(res[1]["rows"][0]["trunks"], json!(["set", [20, 30]]));
}

#[test]
fn mutate_constraint_violation_aborts() {
    let mut db = simple_db();
    db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "p", "tag": 4000}}
    ]));
    let (res, changes) = db.transact(&json!([
        {"op": "mutate", "table": "Port", "where": [],
         "mutations": [["tag", "+=", 1000]]}
    ]));
    assert!(changes.is_empty());
    assert!(res[0]["error"].is_string());
}

/// An arithmetic mutator whose result leaves the integer range fails
/// its operation (a range error), like division by zero, instead of
/// wrapping or panicking — and the table keeps its contents.
#[test]
fn arithmetic_mutator_overflow_fails_the_operation() {
    let mut db = simple_db();
    db.transact(&json!([
        {"op": "insert", "table": "Port",
         "row": {"name": "p", "trunks": ["set", [i64::MIN + 1, 7]]}}
    ]));
    let mutate = |mutator: &str, x: i64| {
        json!([{"op": "mutate", "table": "Port", "where": [],
                "mutations": [["trunks", mutator, x]]}])
    };
    let (res, changes) = db.transact(&mutate("-=", 1));
    assert!(res[0].get("error").is_none(), "{res}");
    assert_eq!(changes.len(), 1);
    let before = db.monitor_snapshot(&["Port"]).unwrap();
    assert!(
        before.to_string().contains(&i64::MIN.to_string()),
        "{before}"
    );
    for (mutator, x) in [
        ("/=", -1),
        ("%=", -1),
        ("-=", 1),
        ("+=", i64::MAX),
        ("*=", 2),
        ("/=", 0),
        ("%=", 0),
    ] {
        let (res, changes) = db.transact(&mutate(mutator, x));
        assert!(changes.is_empty(), "{mutator} {x}");
        assert!(res[0]["error"].is_string(), "{mutator} {x}: {res}");
        assert_eq!(db.monitor_snapshot(&["Port"]).unwrap(), before);
    }
}

#[test]
fn delete_and_where_operators() {
    let mut db = simple_db();
    for (name, tag) in [("a", 1), ("b", 2), ("c", 3)] {
        db.transact(&json!([
            {"op": "insert", "table": "Port", "row": {"name": name, "tag": tag}}
        ]));
    }
    let (res, _) = db.transact(&json!([
        {"op": "select", "table": "Port", "where": [["tag", ">=", 2]]}
    ]));
    assert_eq!(res[0]["rows"].as_array().unwrap().len(), 2);
    let (res, _) = db.transact(&json!([
        {"op": "select", "table": "Port", "where": [["name", "!=", "b"]]}
    ]));
    assert_eq!(res[0]["rows"].as_array().unwrap().len(), 2);
    let (res, changes) = db.transact(&json!([
        {"op": "delete", "table": "Port", "where": [["tag", "<", 3]]}
    ]));
    assert_eq!(res[0]["count"], json!(2));
    assert_eq!(changes.len(), 2);
    assert_eq!(db.table_len("Port"), 1);
}

/// Whether a condition fails is decided by its column type and argument
/// before any row is read: an ordering reaching an untagged port is
/// false for that port, and an ill-typed condition fails on an empty
/// table as on a full one.
#[test]
fn condition_errors_do_not_depend_on_rows() {
    let mut db = simple_db();
    db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "a", "tag": 1}},
        {"op": "insert", "table": "Port", "row": {"name": "b", "tag": 2}},
        {"op": "insert", "table": "Port", "row": {"name": "c", "tag": 3}},
        {"op": "insert", "table": "Port", "row": {"name": "untagged"}}
    ]));
    let (res, changes) = db.transact(&json!([
        {"op": "delete", "table": "Port", "where": [["tag", "<", 3]]},
        {"op": "select", "table": "Port", "where": [], "columns": ["name"]}
    ]));
    assert_eq!(res[0]["count"], json!(2), "{res}");
    assert_eq!(changes.len(), 2);
    let mut left: Vec<&str> = res[1]["rows"]
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r["name"].as_str().unwrap())
        .collect();
    left.sort();
    assert_eq!(left, ["c", "untagged"]);

    let mut empty = simple_db();
    for cond in [
        json!(["trunks", "<", 3]),
        json!(["tag", ">=", ["set", []]]),
        json!(["tag", "<", ["set", [1, 2]]]),
        json!(["options", "includes", ["set", ["speed"]]]),
        json!(["options", "excludes", "speed"]),
        json!(["trunks", "includes", ["map", [[1, 2]]]]),
    ] {
        for db in [&mut empty, &mut db] {
            let (res, _) = db.transact(&json!([
                {"op": "select", "table": "Port", "where": [cond]}
            ]));
            assert!(res[0]["error"].is_string(), "{cond}: {res}");
        }
    }
}

/// A `where` whose `==` conditions cover a declared index examines the
/// row the index names plus the rows the transaction already touched,
/// whatever the table's size; one on an unindexed column examines every
/// row.
#[test]
fn indexed_where_examines_the_change_not_the_table() {
    let mut db = simple_db();
    let inserts = (0..2000).map(|i| {
        json!({"op": "insert", "table": "Port",
               "row": {"name": format!("p{i}"), "tag": i % 100}})
    });
    db.transact(&Json::Array(inserts.collect()));
    let mut examined = |ops: Json| {
        let before = db.rows_examined();
        let (res, changes) = db.transact(&ops);
        assert!(!changes.is_empty(), "{res}");
        db.rows_examined() - before
    };
    let update = |name: &str| {
        json!({"op": "update", "table": "Port", "where": [["name", "==", name]],
               "row": {"tag": 5}})
    };
    assert_eq!(examined(json!([update("p17")])), 1);
    let scanned = examined(json!([
        {"op": "update", "table": "Port", "where": [["tag", "==", 7]], "row": {"tag": 8}}
    ]));
    assert_eq!(scanned, 2000);
    let overlay = 1;
    let touched = examined(json!([
        {"op": "insert", "table": "Port", "row": {"name": "new"}},
        update("p18")
    ]));
    assert!(touched <= 1 + overlay, "{touched}");
}

#[test]
fn includes_excludes_on_sets() {
    let mut db = simple_db();
    db.transact(&json!([
        {"op": "insert", "table": "Port",
         "row": {"name": "t", "trunks": ["set", [1, 2, 3]]}}
    ]));
    let (res, _) = db.transact(&json!([
        {"op": "select", "table": "Port",
         "where": [["trunks", "includes", ["set", [1, 3]]]]}
    ]));
    assert_eq!(res[0]["rows"].as_array().unwrap().len(), 1);
    let (res, _) = db.transact(&json!([
        {"op": "select", "table": "Port",
         "where": [["trunks", "excludes", ["set", [9]]]]}
    ]));
    assert_eq!(res[0]["rows"].as_array().unwrap().len(), 1);
    let (res, _) = db.transact(&json!([
        {"op": "select", "table": "Port",
         "where": [["trunks", "includes", ["set", [9]]]]}
    ]));
    assert_eq!(res[0]["rows"].as_array().unwrap().len(), 0);
}

#[test]
fn uniqueness_constraint() {
    let mut db = simple_db();
    db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "dup"}}
    ]));
    let (res, changes) = db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "dup"}}
    ]));
    assert!(changes.is_empty());
    assert!(res
        .as_array()
        .unwrap()
        .iter()
        .any(|r| r.get("error").is_some()));
    // Two conflicting inserts inside one transaction are also rejected.
    let (res, changes) = db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "d2"}},
        {"op": "insert", "table": "Port", "row": {"name": "d2"}}
    ]));
    assert!(changes.is_empty());
    assert!(res
        .as_array()
        .unwrap()
        .iter()
        .any(|r| r.get("error").is_some()));
    // Renaming a row frees its old name within the same transaction.
    let (_, changes) = db.transact(&json!([
        {"op": "update", "table": "Port", "where": [["name", "==", "dup"]],
         "row": {"name": "renamed"}},
        {"op": "insert", "table": "Port", "row": {"name": "dup"}}
    ]));
    assert_eq!(changes.len(), 2);
}

#[test]
fn named_uuid_resolution_across_ops() {
    let mut db = ref_db();
    let (res, changes) = db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "p1"}, "uuid-name": "p"},
        {"op": "insert", "table": "Bridge",
         "row": {"name": "br0", "ports": ["set", [["named-uuid", "p"]]]}}
    ]));
    assert!(res[0]["uuid"].is_array(), "{res}");
    assert_eq!(changes.len(), 2);
    // The bridge's ports set references the new port's real uuid.
    let port_uuid = uuid_of(&res[0]);
    let bridge = db.rows("Bridge").next().map(|(_, r)| r.clone()).unwrap();
    assert_eq!(bridge["ports"], Datum::set(vec![Atom::Uuid(port_uuid)]));
}

#[test]
fn gc_deletes_unreferenced_rows() {
    let mut db = ref_db();
    // A port with no referencing bridge is garbage-collected immediately.
    let (_, changes) = db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "orphan"}}
    ]));
    assert!(changes.is_empty(), "orphan must never become visible");
    assert_eq!(db.table_len("Port"), 0);

    // Referenced ports survive; dropping the reference collects them.
    let (res, _) = db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "held"}, "uuid-name": "p"},
        {"op": "insert", "table": "Bridge",
         "row": {"name": "br", "ports": ["set", [["named-uuid", "p"]]]}}
    ]));
    assert_eq!(db.table_len("Port"), 1);
    let _ = res;
    let (_, changes) = db.transact(&json!([
        {"op": "update", "table": "Bridge", "where": [],
         "row": {"ports": ["set", []]}}
    ]));
    // Both the bridge modification and the port deletion are reported.
    assert_eq!(changes.len(), 2);
    assert_eq!(db.table_len("Port"), 0);
}

#[test]
fn weak_references_purged_on_target_deletion() {
    let mut db = ref_db();
    let (res, _) = db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "a"}, "uuid-name": "pa"},
        {"op": "insert", "table": "Port",
         "row": {"name": "b", "peer": ["named-uuid", "pa"]}, "uuid-name": "pb"},
        {"op": "insert", "table": "Bridge", "row": {"name": "br",
         "ports": ["set", [["named-uuid", "pa"], ["named-uuid", "pb"]]]}}
    ]));
    let pa = uuid_of(&res[0]);
    let pb = uuid_of(&res[1]);
    assert_eq!(db.table_len("Port"), 2);
    assert_eq!(
        db.get_row("Port", pb).unwrap()["peer"],
        Datum::set(vec![Atom::Uuid(pa)])
    );
    // Drop pa from the bridge: pa is GCed and pb's weak peer empties.
    let (_, _) = db.transact(&json!([
        {"op": "mutate", "table": "Bridge", "where": [],
         "mutations": [["ports", "delete", ["set", [["uuid", pa.to_string()]]]]]}
    ]));
    assert_eq!(db.table_len("Port"), 1);
    assert_eq!(db.get_row("Port", pb).unwrap()["peer"], Datum::empty());
}

#[test]
fn dangling_strong_reference_rejected() {
    let mut db = ref_db();
    let ghost = "12345678-1234-1234-1234-123456789012";
    let (res, changes) = db.transact(&json!([
        {"op": "insert", "table": "Bridge",
         "row": {"name": "br", "ports": ["set", [["uuid", ghost]]]}}
    ]));
    assert!(changes.is_empty());
    assert!(
        res.as_array()
            .unwrap()
            .iter()
            .any(|r| r.get("error").is_some()),
        "{res}"
    );
}

#[test]
fn wait_operation() {
    let mut db = simple_db();
    db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "w", "tag": 1}}
    ]));
    // Satisfied wait passes; unsatisfied aborts the txn.
    let (res, _) = db.transact(&json!([
        {"op": "wait", "table": "Port", "where": [["name", "==", "w"]],
         "columns": ["tag"], "until": "==", "rows": [{"tag": 1}]},
        {"op": "comment", "comment": "after wait"}
    ]));
    assert!(res[0].get("error").is_none(), "{res}");
    let (res, changes) = db.transact(&json!([
        {"op": "wait", "table": "Port", "where": [["name", "==", "w"]],
         "columns": ["tag"], "until": "==", "rows": [{"tag": 999}]},
        {"op": "update", "table": "Port", "where": [], "row": {"tag": 2}}
    ]));
    assert!(changes.is_empty());
    assert!(res[0]["error"].is_string());
}

#[test]
fn unknown_table_column_and_op_errors() {
    let mut db = simple_db();
    let cases = [
        json!([{"op": "insert", "table": "Nope", "row": {}}]),
        json!([{"op": "insert", "table": "Port", "row": {"zap": 1}}]),
        json!([{"op": "frobnicate"}]),
        json!([{"op": "select", "table": "Port", "where": [["zap", "==", 1]]}]),
        json!([{"op": "select", "table": "Port", "where": [["name", "~~", "x"]]}]),
    ];
    for ops in cases {
        let (res, changes) = db.transact(&ops);
        assert!(changes.is_empty(), "{ops}");
        assert!(
            res.as_array()
                .unwrap()
                .iter()
                .any(|r| r.get("error").is_some()),
            "expected error for {ops}: {res}"
        );
    }
}

#[test]
fn where_on_uuid() {
    let mut db = simple_db();
    let (res, _) = db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "u"}}
    ]));
    let uuid = uuid_of(&res[0]);
    let (res, _) = db.transact(&json!([
        {"op": "select", "table": "Port",
         "where": [["_uuid", "==", ["uuid", uuid.to_string()]]]}
    ]));
    assert_eq!(res[0]["rows"].as_array().unwrap().len(), 1);
}

#[test]
fn max_rows_enforced() {
    let schema = Schema::from_json(&json!({
        "name": "lim",
        "tables": {"T": {"columns": {"x": {"type": "integer"}},
                         "isRoot": true, "maxRows": 2}}
    }))
    .unwrap();
    let mut db = Database::new(schema);
    for i in 0..2 {
        let (res, _) = db.transact(&json!([
            {"op": "insert", "table": "T", "row": {"x": i}}
        ]));
        assert!(res[0].get("error").is_none());
    }
    let (res, changes) = db.transact(&json!([
        {"op": "insert", "table": "T", "row": {"x": 99}}
    ]));
    assert!(changes.is_empty());
    assert!(res
        .as_array()
        .unwrap()
        .iter()
        .any(|r| r.get("error").is_some()));
}

#[test]
fn changes_are_deterministically_ordered() {
    let mut db = simple_db();
    let (_, changes) = db.transact(&json!([
        {"op": "insert", "table": "Port", "row": {"name": "z"}},
        {"op": "insert", "table": "Port", "row": {"name": "a"}},
        {"op": "insert", "table": "Port", "row": {"name": "m"}}
    ]));
    let mut sorted = changes.clone();
    sorted.sort_by(|a, b| (&a.table, a.uuid).cmp(&(&b.table, b.uuid)));
    assert_eq!(changes, sorted);
}
