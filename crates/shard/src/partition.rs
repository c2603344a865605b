//! Deterministic row→shard partitioning.
//!
//! The router is a pure function of row keys: given a table name and a
//! typed row ([`RowChange`] values — monitor JSON is decoded once, at
//! the socket, by [`ovsdb::decode_table_updates`]), it decides which
//! shard owns the row. Rows keyed by a switch column go to
//! `switch % shards`; rows keyed by a VLAN column (programs with no
//! switch identity on the row) go to `vlan % shards`; global-config
//! rows are broadcast to every shard. Nothing about the assignment
//! depends on arrival order, batch boundaries, or prior routing
//! decisions, so replaying a permuted input stream routes every row
//! identically — the property the partition proptests pin down.

use std::collections::BTreeMap;

use ovsdb::db::{RowChange, RowData};
use ovsdb::Atom;

/// Where one row lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// Exactly one shard owns the row.
    One(usize),
    /// Every shard receives the row (global configuration).
    All,
}

/// How rows of one table map to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteRule {
    /// Partition by the named integer switch column.
    BySwitch(String),
    /// Partition by the named integer VLAN column — the fallback for
    /// tables that carry no switch identity but are still per-segment.
    ByVlan(String),
    /// Replicate to every shard (global configuration rows that
    /// cross-join with per-switch state, e.g. snvs `Port`).
    Broadcast,
}

impl RouteRule {
    /// The key column this rule partitions on, if any.
    fn key_column(&self) -> Option<&str> {
        match self {
            RouteRule::BySwitch(c) | RouteRule::ByVlan(c) => Some(c),
            RouteRule::Broadcast => None,
        }
    }
}

/// Per-table routing rules plus the default for unlisted tables.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    rules: BTreeMap<String, RouteRule>,
    default_rule: RouteRule,
}

impl PartitionSpec {
    /// A spec with only the default rule.
    pub fn new(default_rule: RouteRule) -> PartitionSpec {
        PartitionSpec {
            rules: BTreeMap::new(),
            default_rule,
        }
    }

    /// Add (or replace) the rule for `table`.
    pub fn with_rule(mut self, table: &str, rule: RouteRule) -> PartitionSpec {
        self.rules.insert(table.to_string(), rule);
        self
    }

    /// The partitioning of the snvs program: `Switch` rows are owned by
    /// `idx % shards`; `Port` rows are global config (every snvs rule
    /// cross-joins them with `Switch`), so they broadcast — as does any
    /// table the spec does not know about, which is always safe: a
    /// shard that holds a surplus row derives only per-switch outputs
    /// for switches it does not own, and those are dropped at the
    /// write-routing stage.
    pub fn snvs() -> PartitionSpec {
        PartitionSpec::new(RouteRule::Broadcast)
            .with_rule("Switch", RouteRule::BySwitch("idx".to_string()))
            .with_rule("Port", RouteRule::Broadcast)
    }

    /// The rule for `table`.
    pub fn rule(&self, table: &str) -> &RouteRule {
        self.rules.get(table).unwrap_or(&self.default_rule)
    }
}

/// A [`PartitionSpec`] bound to a shard count.
#[derive(Debug, Clone)]
pub struct Router {
    spec: PartitionSpec,
    shards: usize,
}

impl Router {
    /// Bind `spec` to `shards` partitions (at least one).
    pub fn new(spec: PartitionSpec, shards: usize) -> Router {
        assert!(shards >= 1, "a router needs at least one shard");
        Router { spec, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning switch `idx` — also the digest route: a digest
    /// reported by switch `idx` is consumed by this shard's engine.
    pub fn route_switch(&self, idx: usize) -> usize {
        idx % self.shards
    }

    fn key_to_shard(&self, key: i64) -> usize {
        key.rem_euclid(self.shards as i64) as usize
    }

    /// Route one row. A keyed table whose key column is absent or
    /// non-integer broadcasts (total assignment: every row lands
    /// somewhere, and over-delivery is harmless — see
    /// [`PartitionSpec::snvs`]).
    pub fn route_row_data(&self, table: &str, row: &RowData) -> Assignment {
        match self.spec.rule(table).key_column() {
            None => Assignment::All,
            Some(col) => match row.get(col).and_then(|d| d.as_scalar()) {
                Some(Atom::Integer(k)) => Assignment::One(self.key_to_shard(*k)),
                _ => Assignment::All,
            },
        }
    }

    /// Split row changes — committed in-process or decoded from a
    /// monitor update or snapshot — into per-shard
    /// batches, preserving order within each shard. A change whose key
    /// moved across shards splits into a bare deletion on the old owner
    /// and a bare insertion on the new one.
    pub fn split_row_changes(&self, changes: &[RowChange]) -> Vec<Vec<RowChange>> {
        let mut out: Vec<Vec<RowChange>> = vec![Vec::new(); self.shards];
        for change in changes {
            let old_dst = change
                .old
                .as_ref()
                .map(|r| self.route_row_data(&change.table, r));
            let new_dst = change
                .new
                .as_ref()
                .map(|r| self.route_row_data(&change.table, r));
            match (old_dst, new_dst) {
                (Some(od), Some(nd)) if od != nd => {
                    for shard in self.fan_out(od) {
                        out[shard].push(RowChange {
                            new: None,
                            ..change.clone()
                        });
                    }
                    for shard in self.fan_out(nd) {
                        out[shard].push(RowChange {
                            old: None,
                            ..change.clone()
                        });
                    }
                }
                (_, Some(dst)) | (Some(dst), _) => {
                    for shard in self.fan_out(dst) {
                        out[shard].push(change.clone());
                    }
                }
                (None, None) => {}
            }
        }
        out
    }

    fn fan_out(&self, a: Assignment) -> Vec<usize> {
        match a {
            Assignment::One(s) => vec![s],
            Assignment::All => (0..self.shards).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovsdb::{Datum, Uuid};
    use std::sync::Arc;

    fn router(shards: usize) -> Router {
        Router::new(PartitionSpec::snvs(), shards)
    }

    fn row(cols: &[(&str, i64)]) -> RowData {
        cols.iter()
            .map(|(c, v)| (c.to_string(), Datum::scalar(Atom::Integer(*v))))
            .collect()
    }

    fn change(table: &str, uuid: u128, old: Option<RowData>, new: Option<RowData>) -> RowChange {
        RowChange {
            table: table.to_string(),
            uuid: Uuid(uuid),
            old: old.map(Arc::new),
            new: new.map(Arc::new),
        }
    }

    #[test]
    fn switch_rows_partition_by_idx() {
        let r = router(4);
        for idx in 0..16 {
            assert_eq!(
                r.route_row_data("Switch", &row(&[("idx", idx)])),
                Assignment::One(idx as usize % 4),
                "idx {idx}"
            );
        }
    }

    #[test]
    fn port_rows_broadcast() {
        let r = router(4);
        let port = row(&[("id", 7), ("tag", 42)]);
        assert_eq!(r.route_row_data("Port", &port), Assignment::All);
    }

    #[test]
    fn unknown_table_and_missing_key_broadcast() {
        let r = router(4);
        let x = row(&[("x", 1)]);
        assert_eq!(r.route_row_data("Mystery", &x), Assignment::All);
        assert_eq!(r.route_row_data("Switch", &x), Assignment::All);
    }

    #[test]
    fn vlan_fallback_rule() {
        let spec = PartitionSpec::new(RouteRule::Broadcast)
            .with_rule("Segment", RouteRule::ByVlan("vlan".to_string()));
        let r = Router::new(spec, 4);
        assert_eq!(
            r.route_row_data("Segment", &row(&[("vlan", 10)])),
            Assignment::One(2)
        );
    }

    #[test]
    fn split_routes_keyed_rows_to_one_shard_and_broadcasts_the_rest() {
        let r = router(2);
        let changes = [
            change("Switch", 1, None, Some(row(&[("idx", 0)]))),
            change("Switch", 2, None, Some(row(&[("idx", 1)]))),
            change("Port", 3, None, Some(row(&[("id", 9), ("tag", 1)]))),
        ];
        let slices = r.split_row_changes(&changes);
        assert_eq!(slices[0], [changes[0].clone(), changes[2].clone()]);
        assert_eq!(slices[1], [changes[1].clone(), changes[2].clone()]);
    }

    #[test]
    fn modify_that_moves_key_splits_into_delete_and_insert() {
        let r = router(2);
        let (old, new) = (row(&[("idx", 0)]), row(&[("idx", 1)]));
        let slices =
            r.split_row_changes(&[change("Switch", 1, Some(old.clone()), Some(new.clone()))]);
        assert_eq!(
            slices[0],
            [change("Switch", 1, Some(old), None)],
            "old owner sees a pure delete"
        );
        assert_eq!(
            slices[1],
            [change("Switch", 1, None, Some(new))],
            "new owner sees a pure insert"
        );
    }

    #[test]
    fn single_shard_router_sends_everything_to_shard_zero() {
        let r = router(1);
        assert_eq!(
            r.route_row_data("Switch", &row(&[("idx", 9)])),
            Assignment::One(0)
        );
        assert_eq!(r.route_switch(9), 0);
    }
}
