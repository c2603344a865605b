//! `Database::transact` on untrusted input: whatever JSON a client sends
//! as a transaction — noise, or operations of every kind with mutated
//! fields and integers at the edges of the range — it never panics, and
//! a transaction that reports an error commits nothing: the table
//! contents are the same afterwards.

use ovsdb::db::Database;
use ovsdb::schema::Schema;
use proptest::prelude::*;
use serde_json::{json, Map, Value as Json};

fn db() -> Database {
    let schema = Schema::from_json(&json!({
        "name": "net",
        "tables": {
            "Port": {
                "columns": {
                    "name": {"type": "string"},
                    "count": {"type": "integer"},
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
    let mut db = Database::new(schema);
    let (res, _) = db.transact(&json!([
        {"op": "insert", "table": "Port",
         "row": {"name": "a", "count": i64::MAX, "tag": 1, "trunks": ["set", [i64::MIN, 0]]}},
        {"op": "insert", "table": "Port",
         "row": {"name": "b", "count": i64::MIN, "options": ["map", [["k", "v"]]]}}
    ]));
    assert!(res[0].get("error").is_none(), "{res}");
    db
}

/// One of `options`, uniformly.
fn pick(options: &'static [&'static str]) -> impl Strategy<Value = &'static str> + Clone {
    (0..options.len()).prop_map(move |i| options[i])
}

fn int() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MAX),
        Just(i64::MIN + 1),
        Just(-1i64),
        Just(-1i64),
        Just(0i64),
        Just(1i64),
        Just(2i64),
        any::<i64>(),
    ]
}

/// A column value: mostly well-formed, sometimes of the wrong shape.
fn value() -> impl Strategy<Value = Json> {
    prop_oneof![
        int().prop_map(Json::from),
        "[a-c]{0,2}".prop_map(Json::from),
        proptest::collection::vec(int(), 0..3).prop_map(|v| json!(["set", v])),
        Just(json!(["map", [["k", "v"]]])),
        Just(json!(["uuid", "not-a-uuid"])),
        Just(Json::Null),
        any::<bool>().prop_map(Json::from),
    ]
}

fn column() -> impl Strategy<Value = &'static str> {
    pick(&["name", "count", "tag", "trunks", "options", "_uuid", "zap"])
}

fn row() -> impl Strategy<Value = Json> {
    proptest::collection::vec((column(), value()), 0..3)
        .prop_map(|cols| Json::Object(cols.into_iter().map(|(c, v)| (c.to_string(), v)).collect()))
}

fn conditions() -> impl Strategy<Value = Json> {
    let function = pick(&[
        "==", "!=", "<", "<=", ">", ">=", "includes", "excludes", "~~",
    ]);
    proptest::collection::vec((column(), function, value()), 0..2)
        .prop_map(|cs| cs.into_iter().map(|(c, f, v)| json!([c, f, v])).collect())
}

/// Half arithmetic with an integer argument, half anything.
fn mutations() -> impl Strategy<Value = Json> {
    let arithmetic = (
        pick(&["+=", "-=", "*=", "/=", "%="]),
        int().prop_map(Json::from),
    );
    let other = (pick(&["+=", "/=", "insert", "delete", "??"]), value());
    proptest::collection::vec((column(), prop_oneof![arithmetic, other]), 1..4)
        .prop_map(|ms| ms.into_iter().map(|(c, (m, v))| json!([c, m, v])).collect())
}

/// One operation of each kind RFC 7047 defines for a table, with its
/// fields drawn from [`value`], [`row`], [`conditions`], [`mutations`].
fn op() -> impl Strategy<Value = Json> {
    let table = pick(&["Port", "Port", "Port", "Nope"]);
    (0u8..8, table, row(), conditions(), mutations(), value()).prop_map(
        |(kind, table, row, wh, muts, v)| match kind {
            0 => json!({"op": "insert", "table": table, "row": row}),
            1 => json!({"op": "select", "table": table, "where": wh}),
            2 => json!({"op": "update", "table": table, "where": wh, "row": row}),
            3 | 7 => json!({"op": "mutate", "table": table, "where": wh, "mutations": muts}),
            4 => json!({"op": "delete", "table": table, "where": wh}),
            5 => json!({"op": "wait", "table": table, "where": wh,
                        "columns": ["count"], "until": "==", "rows": [row], "timeout": v}),
            _ => json!({"op": "comment", "comment": v}),
        },
    )
}

/// Arbitrary JSON nested at most `depth` deep, with the object keys
/// and leaf strings an operation would use.
fn arbitrary_json(depth: usize) -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::from),
        int().prop_map(Json::from),
        pick(&["Port", "insert", "mutate", "+=", "set", "map", "uuid"]).prop_map(Json::from),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = arbitrary_json(depth - 1);
    let key = pick(&[
        "op",
        "table",
        "row",
        "where",
        "mutations",
        "columns",
        "until",
        "rows",
        "uuid-name",
    ]);
    prop_oneof![
        leaf,
        proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Array),
        proptest::collection::vec((key, inner), 0..4).prop_map(|kvs| {
            Json::Object(
                kvs.into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect::<Map<_, _>>(),
            )
        }),
    ]
    .boxed()
}

/// Run `txns` in order; after each, a transaction that reported an
/// error must have left the table as it was.
fn check(txns: &[Json]) -> Result<(), TestCaseError> {
    let mut db = db();
    for txn in txns {
        let before = db.monitor_snapshot(&["Port"]).unwrap();
        let (res, changes) = db.transact(txn);
        let failed = res
            .as_array()
            .is_some_and(|rs| rs.iter().any(|r| r.get("error").is_some()));
        if failed {
            prop_assert!(changes.is_empty(), "{}: {}", txn, res);
            prop_assert_eq!(db.monitor_snapshot(&["Port"]).unwrap(), before, "{}", txn);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_json_never_panics(txns in proptest::collection::vec(arbitrary_json(3), 1..4)) {
        check(&txns)?;
    }

    #[test]
    fn operations_with_mutated_fields_never_panic(
        txns in proptest::collection::vec(proptest::collection::vec(op(), 1..4), 1..6)
    ) {
        let txns: Vec<Json> = txns.into_iter().map(Json::Array).collect();
        check(&txns)?;
    }
}
