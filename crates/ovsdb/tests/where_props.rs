//! A planned `where` answers exactly what a scan answers. Conditions
//! whose `==` conditions cover a declared index (or `_uuid`) read the
//! one row the index names plus the transaction's own rows; this checks
//! them against the same conditions with every `==` rewritten to
//! `includes` of a singleton set — the same predicate on a column of at
//! most one value, and one the planner never narrows, so it tests every
//! visible row. Both run inside one transaction whose earlier operations
//! built an overlay: inserts, deletes, updates that move an indexed
//! value, a delete and re-insert of the same key, and deletes of rows
//! the base index points at.

use ovsdb::db::Database;
use ovsdb::schema::Schema;
use proptest::prelude::*;
use serde_json::{json, Value as Json};

/// `T` has a single-column index on `k` and a two-column one on
/// `(b, c)`; `v` is an unindexed optional integer.
fn db() -> Database {
    let schema = Schema::from_json(&json!({
        "name": "w",
        "tables": {
            "T": {
                "columns": {
                    "k": {"type": "integer"},
                    "b": {"type": "string"},
                    "c": {"type": "integer"},
                    "v": {"type": {"key": "integer", "min": 0, "max": 1}}
                },
                "isRoot": true,
                "indexes": [["k"], ["b", "c"]]
            }
        }
    }))
    .unwrap();
    Database::new(schema)
}

/// The row first inserted with key `k`; `(b, c)` is unique iff `k` is.
fn row(k: i64) -> Json {
    let v = if k % 4 == 0 {
        json!(["set", []])
    } else {
        json!(k % 5)
    };
    json!({"k": k, "b": format!("b{}", k % 3), "c": k / 3, "v": v})
}

/// One step that changes the transaction's overlay.
#[derive(Debug, Clone)]
enum Move {
    Insert(i64),
    Delete(i64),
    /// Move a row's `k` to another value.
    Rekey(i64, i64),
    /// Move a row, found by `(b, c)`, to another `c`.
    Recolumn(i64, i64),
    /// Delete a key and insert it again.
    Readd(i64),
    /// Delete, by `_uuid`, the row the base index holds at this position.
    DeleteBase(usize),
}

impl Move {
    fn ops(&self, base: &[String]) -> Vec<Json> {
        let by_k = |k: i64| json!([["k", "==", k]]);
        let insert = |k: i64| json!({"op": "insert", "table": "T", "row": row(k)});
        let delete = |wh: Json| json!({"op": "delete", "table": "T", "where": wh});
        match *self {
            Move::Insert(k) => vec![insert(k)],
            Move::Delete(k) => vec![delete(by_k(k))],
            Move::Rekey(k, to) => {
                vec![json!({"op": "update", "table": "T", "where": by_k(k), "row": {"k": to}})]
            }
            Move::Recolumn(k, to) => vec![json!({"op": "update", "table": "T",
                "where": [["b", "==", format!("b{}", k % 3)], ["c", "==", k / 3]],
                "row": {"c": to}})],
            Move::Readd(k) => vec![delete(by_k(k)), insert(k)],
            Move::DeleteBase(i) => vec![delete(json!([[
                "_uuid",
                "==",
                ["uuid", base[i % base.len()]]
            ]]))],
        }
    }
}

fn key() -> impl Strategy<Value = i64> {
    0i64..70
}

fn moves(max: usize) -> impl Strategy<Value = Vec<Move>> {
    let mv = prop_oneof![
        key().prop_map(Move::Insert),
        key().prop_map(Move::Delete),
        (key(), key()).prop_map(|(k, to)| Move::Rekey(k, to)),
        (key(), 0i64..25).prop_map(|(k, to)| Move::Recolumn(k, to)),
        key().prop_map(Move::Readd),
        any::<usize>().prop_map(Move::DeleteBase),
    ];
    proptest::collection::vec(mv, 0..max)
}

/// One condition: `(column, function, argument)`.
#[derive(Debug, Clone)]
enum Cond {
    K(i64),
    B(i64),
    C(i64),
    V(i64),
    /// `_uuid ==` the base row at this position, or an absent uuid.
    Uuid(usize),
    KNotEq(i64),
    VLess(i64),
}

impl Cond {
    fn json(&self, base: &[String]) -> (&'static str, &'static str, Json) {
        match *self {
            Cond::K(k) => ("k", "==", json!(k)),
            Cond::B(b) => ("b", "==", json!(format!("b{b}"))),
            Cond::C(c) => ("c", "==", json!(c)),
            Cond::V(v) => ("v", "==", json!(v)),
            Cond::Uuid(i) => {
                let absent = "00000000-0000-4000-8000-000000000000".to_string();
                (
                    "_uuid",
                    "==",
                    json!(["uuid", base.get(i).unwrap_or(&absent)]),
                )
            }
            Cond::KNotEq(k) => ("k", "!=", json!(k)),
            Cond::VLess(v) => ("v", "<", json!(v)),
        }
    }
}

fn conds() -> impl Strategy<Value = Vec<Cond>> {
    let cond = prop_oneof![
        key().prop_map(Cond::K),
        (0i64..4).prop_map(Cond::B),
        (0i64..25).prop_map(Cond::C),
        (0i64..6).prop_map(Cond::V),
        (0usize..50).prop_map(Cond::Uuid),
        key().prop_map(Cond::KNotEq),
        (0i64..6).prop_map(Cond::VLess),
    ];
    proptest::collection::vec(cond, 1..4)
}

/// Whether the planner narrows `conds` to one base row.
fn covers_an_index(conds: &[Cond]) -> bool {
    let has = |f: fn(&Cond) -> bool| conds.iter().any(f);
    has(|c| matches!(c, Cond::K(_) | Cond::Uuid(_)))
        || (has(|c| matches!(c, Cond::B(_))) && has(|c| matches!(c, Cond::C(_))))
}

fn select(wh: Json) -> Json {
    json!({"op": "select", "table": "T", "where": wh})
}

/// Run `ops` and then abort; the results and the rows examined.
fn run_aborted(db: &mut Database, mut ops: Vec<Json>) -> (Vec<Json>, u64) {
    ops.push(json!({"op": "abort"}));
    let before = db.rows_examined();
    let (res, changes) = db.transact(&Json::Array(ops));
    assert!(changes.is_empty());
    (res.as_array().unwrap().clone(), db.rows_examined() - before)
}

fn check(
    mut keys: Vec<i64>,
    prior: Vec<Move>,
    txn: Vec<Move>,
    conds: Vec<Cond>,
) -> Result<(), TestCaseError> {
    keys.sort_unstable();
    keys.dedup();
    let mut db = db();
    let inserts = keys
        .iter()
        .map(|k| json!({"op": "insert", "table": "T", "row": row(*k)}));
    db.transact(&Json::Array(inserts.collect()));
    let uuids = |db: &Database| db.rows("T").map(|(u, _)| u.to_string()).collect::<Vec<_>>();
    // A committed batch of moves (which may fail uniqueness and commit
    // nothing) varies the base the index is read from.
    let base = uuids(&db);
    db.transact(&Json::Array(
        prior.iter().flat_map(|m| m.ops(&base)).collect(),
    ));
    let base = uuids(&db);
    prop_assume!(!base.is_empty());

    let moves: Vec<Json> = txn.iter().flat_map(|m| m.ops(&base)).collect();
    let planned: Vec<Json> = conds
        .iter()
        .map(|c| {
            let (col, func, arg) = c.json(&base);
            json!([col, func, arg])
        })
        .collect();
    let scanned: Vec<Json> = conds
        .iter()
        .map(|c| match c.json(&base) {
            (col, "==", arg) => json!([col, "includes", ["set", [arg]]]),
            (col, func, arg) => json!([col, func, arg]),
        })
        .collect();
    let tail = [select(json!(scanned)), select(json!([]))];

    let mut with_planned = moves.clone();
    with_planned.push(select(json!(planned)));
    with_planned.extend(tail.iter().cloned());
    let (res, examined_with) = run_aborted(&mut db, with_planned);
    let n = moves.len();
    for r in &res[..n + 3] {
        prop_assert!(r.get("error").is_none(), "{:?}", res);
    }
    let (planned_rows, scanned_rows, visible) =
        (&res[n]["rows"], &res[n + 1]["rows"], &res[n + 2]["rows"]);
    prop_assert_eq!(planned_rows, scanned_rows, "{:?} after {:?}", conds, txn);

    let mut without = moves;
    without.extend(tail);
    let (_, examined_without) = run_aborted(&mut db, without);
    let examined = examined_with - examined_without;
    if covers_an_index(&conds) {
        // Each move adds at most two rows to the overlay.
        prop_assert!(
            examined <= 1 + 2 * txn.len() as u64,
            "{} for {:?}",
            examined,
            conds
        );
    } else {
        prop_assert_eq!(examined, visible.as_array().unwrap().len() as u64);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn planned_where_equals_scanned_where(
        keys in proptest::collection::vec(key(), 1..40),
        prior in moves(4),
        txn in moves(8),
        conds in conds(),
    ) {
        check(keys, prior, txn, conds)?;
    }
}
