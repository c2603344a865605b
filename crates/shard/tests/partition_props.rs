//! Partitioner properties: the row→shard assignment is total (every
//! row lands on at least one shard, never on a nonexistent one),
//! deterministic across replays, and stable under permutation and
//! re-batching of the input stream — a row's destination depends only
//! on its own keys, never on arrival order or batch boundaries. A
//! modify that moves a row's routing key lands as a bare delete on the
//! old owner and a bare insert on the new one.

use std::collections::BTreeMap;
use std::sync::Arc;

use ovsdb::db::{RowChange, RowData};
use ovsdb::{Atom, Datum, Uuid};
use proptest::prelude::*;
use shard::{Assignment, PartitionSpec, Router};

/// A generated row: which table, its integer key (meaningful for
/// `Switch` only), and whether the change carries old/new halves.
type GenRow = (u8, i64, bool, bool);

fn row_data(table_kind: u8, key: i64) -> Arc<RowData> {
    let mut row = BTreeMap::new();
    match table_kind % 3 {
        0 => {
            row.insert("idx".to_string(), Datum::scalar(Atom::Integer(key)));
        }
        1 => {
            row.insert("id".to_string(), Datum::scalar(Atom::Integer(key)));
            row.insert("tag".to_string(), Datum::scalar(Atom::Integer(1)));
        }
        _ => {
            row.insert("x".to_string(), Datum::scalar(Atom::Integer(key)));
        }
    }
    Arc::new(row)
}

fn table_name(table_kind: u8) -> &'static str {
    match table_kind % 3 {
        0 => "Switch",
        1 => "Port",
        _ => "Mystery",
    }
}

fn change(i: usize, (table_kind, key, has_old, has_new): GenRow) -> RowChange {
    let data = row_data(table_kind, key);
    RowChange {
        table: table_name(table_kind).to_string(),
        uuid: Uuid(((i as u128) << 64) | 0xdead),
        old: (has_old || !has_new).then(|| data.clone()),
        new: has_new.then(|| data.clone()),
    }
}

fn routes_of(router: &Router, changes: &[RowChange]) -> BTreeMap<ovsdb::Uuid, Vec<usize>> {
    let mut out: BTreeMap<ovsdb::Uuid, Vec<usize>> = BTreeMap::new();
    for (s, slice) in router.split_row_changes(changes).into_iter().enumerate() {
        for c in slice {
            out.entry(c.uuid).or_default().push(s);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every row is assigned, and always to an existing shard.
    #[test]
    fn assignment_is_total(
        rows in proptest::collection::vec((0u8..3, -64i64..64), 1..40),
        shards in 1usize..9,
    ) {
        let router = Router::new(PartitionSpec::snvs(), shards);
        for (kind, key) in &rows {
            let table = table_name(*kind);
            match router.route_row_data(table, &row_data(*kind, *key)) {
                Assignment::One(s) => prop_assert!(s < shards, "{table} key {key} -> shard {s}"),
                Assignment::All => {}
            }
        }
    }

    /// Routing the same batch twice yields byte-identical splits.
    #[test]
    fn assignment_is_deterministic(
        rows in proptest::collection::vec((0u8..3, -64i64..64, any::<bool>(), any::<bool>()), 1..40),
        shards in 1usize..9,
    ) {
        let router = Router::new(PartitionSpec::snvs(), shards);
        let changes: Vec<RowChange> = rows.iter().enumerate().map(|(i, r)| change(i, *r)).collect();
        let a = router.split_row_changes(&changes);
        let b = router.split_row_changes(&changes);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // A separately-constructed router with the same spec agrees too.
        let other = Router::new(PartitionSpec::snvs(), shards);
        let c = other.split_row_changes(&changes);
        prop_assert_eq!(format!("{a:?}"), format!("{c:?}"));
    }

    /// Each row's destination set is invariant under permutation and
    /// re-batching of the input stream.
    #[test]
    fn assignment_is_stable_under_permutation(
        rows in proptest::collection::vec((0u8..3, -64i64..64, any::<bool>(), any::<bool>()), 2..40),
        shards in 1usize..9,
        rotate in 0usize..40,
        split_at in 0usize..40,
    ) {
        let router = Router::new(PartitionSpec::snvs(), shards);
        let changes: Vec<RowChange> = rows.iter().enumerate().map(|(i, r)| change(i, *r)).collect();
        let baseline = routes_of(&router, &changes);

        // Rotated stream: same rows, different order.
        let mut rotated = changes.clone();
        rotated.rotate_left(rotate % changes.len());
        prop_assert_eq!(&routes_of(&router, &rotated), &baseline);

        // Re-batched stream: same rows, different batch boundaries.
        let cut = split_at % changes.len();
        let mut rebatched = routes_of(&router, &changes[..cut]);
        for (uuid, mut shards) in routes_of(&router, &changes[cut..]) {
            rebatched.entry(uuid).or_default().append(&mut shards);
        }
        prop_assert_eq!(&rebatched, &baseline);
    }

    /// A modify whose routing key moves to another shard is seen by the
    /// old owner as a bare delete and by the new owner as a bare insert,
    /// and by nobody else; a modify that stays put arrives whole.
    #[test]
    fn key_moving_modify_splits_into_delete_and_insert(
        from in -64i64..64,
        to in -64i64..64,
        shards in 1usize..9,
    ) {
        let router = Router::new(PartitionSpec::snvs(), shards);
        let modify = RowChange {
            table: "Switch".to_string(),
            uuid: Uuid(7),
            old: Some(row_data(0, from)),
            new: Some(row_data(0, to)),
        };
        let slices = router.split_row_changes(std::slice::from_ref(&modify));
        let (old_owner, new_owner) = (
            from.rem_euclid(shards as i64) as usize,
            to.rem_euclid(shards as i64) as usize,
        );
        for (shard, slice) in slices.iter().enumerate() {
            let expect: Vec<RowChange> = if old_owner == new_owner {
                if shard == old_owner { vec![modify.clone()] } else { vec![] }
            } else if shard == old_owner {
                vec![RowChange { new: None, ..modify.clone() }]
            } else if shard == new_owner {
                vec![RowChange { old: None, ..modify.clone() }]
            } else {
                vec![]
            };
            prop_assert_eq!(slice, &expect, "shard {}", shard);
        }
    }
}
