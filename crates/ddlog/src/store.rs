//! Relation storage: derivation-counted rows plus maintained arrangements.
//!
//! Each relation stores a map from row to its *derivation count* (for
//! input relations this is always 1). The visible, set-semantics contents
//! are the rows with positive count. Keyed [`Arrangement`]s over column
//! subsets are registered by the planner and maintained incrementally on
//! every set-level change — they are what makes join lookups and driven
//! recursive probes O(matches) instead of O(relation).

use std::collections::HashMap;

use crate::arrange::{ArrStats, Arrangement};
use crate::value::{Row, Value};
use crate::zset::ZSet;

/// Identifies a relation inside an engine (index into the store table).
pub type RelId = usize;

/// An index key: the projection of a row onto the index's columns.
pub type Key = Vec<Value>;

/// Approximate resident bytes of one value, including heap payloads.
pub(crate) fn value_bytes(v: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match v {
            Value::Str(s) => s.len(),
            Value::Vec(v) | Value::Tuple(v) => v.iter().map(value_bytes).sum(),
            Value::Set(s) => s.iter().map(value_bytes).sum(),
            Value::Map(m) => m.iter().map(|(k, v)| value_bytes(k) + value_bytes(v)).sum(),
            _ => 0,
        }
}

/// Approximate resident bytes of one stored row, its [`RowEntry`]
/// (count and last-touch stamp) included.
fn row_bytes(r: &Row) -> usize {
    r.iter().map(value_bytes).sum::<usize>()
        + std::mem::size_of::<Row>()
        + std::mem::size_of::<RowEntry>()
        + 8
}

/// `(trace, commit)`: the flight-recorder trace and the engine commit
/// that last made a row visible.
pub type Touch = (u64, u64);

/// Everything the engine keeps per stored row.
#[derive(Debug, Clone, Copy)]
struct RowEntry {
    /// Derivation count; never negative, and entries at 0 are removed.
    count: isize,
    /// Stamped when the row (re)appears; dies with the entry.
    touch: Touch,
}

/// Storage for one relation.
#[derive(Debug, Default, Clone)]
pub struct RelationStore {
    /// Relation name, for diagnostics.
    pub name: String,
    /// Number of columns.
    arity: usize,
    /// Row → derivation count and last-touch stamp. Only rows with
    /// count != 0 are present; counts are never negative.
    derivations: HashMap<Row, RowEntry>,
    /// The stamp written onto rows that become visible; the engine sets
    /// it once per commit ([`RelationStore::set_touch`]).
    touch: Touch,
    /// Number of rows with positive derivation count.
    live_rows: usize,
    /// Registered arrangements; `by_cols` maps a key-column list to its
    /// position. Arrangements are shared: every operator probing the
    /// same `(relation, cols)` pair hits the same index.
    arrangements: Vec<Arrangement>,
    by_cols: HashMap<Vec<usize>, usize>,
    /// Fault injection (`stale-arrangement`): skip index maintenance on
    /// retraction, leaving ghost rows for the oracle to catch.
    stale_retractions: bool,
    /// Incrementally maintained approximate resident bytes; always equal
    /// to what [`RelationStore::approx_bytes_recompute`] would return.
    bytes: usize,
}

impl RelationStore {
    /// Create an empty store for rows of `arity` columns.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        RelationStore {
            name: name.into(),
            arity,
            ..Default::default()
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Register an arrangement over `cols` with a catalog id (idempotent
    /// by `cols`; a later registration can attach the id to an ad-hoc
    /// arrangement). Must be called before rows are inserted (the
    /// planner does this at compile time).
    pub fn register_arrangement(&mut self, cols: &[usize], global: Option<usize>) {
        if let Some(&i) = self.by_cols.get(cols) {
            if let Some(g) = global {
                self.arrangements[i].set_global(g);
            }
            return;
        }
        self.by_cols.insert(cols.to_vec(), self.arrangements.len());
        self.arrangements.push(Arrangement::new(cols, global));
    }

    /// True if an arrangement over exactly `cols` exists.
    pub fn has_index(&self, cols: &[usize]) -> bool {
        self.by_cols.contains_key(cols)
    }

    /// Number of visible (set-semantics) rows.
    pub fn len(&self) -> usize {
        self.live_rows
    }

    /// True if there are no visible rows.
    pub fn is_empty(&self) -> bool {
        self.live_rows == 0
    }

    /// True if `row` is visible.
    pub fn contains(&self, row: &Row) -> bool {
        self.derivation_count(row) > 0
    }

    /// The stored row equal to `vals`, when it is visible.
    pub(crate) fn visible(&self, vals: &Vec<Value>) -> Option<&Row> {
        let (row, e) = self.derivations.get_key_value(vals)?;
        (e.count > 0).then_some(row)
    }

    /// The derivation count of `row`.
    pub fn derivation_count(&self, row: &Row) -> isize {
        self.derivations.get(row).map_or(0, |e| e.count)
    }

    /// The `(trace, commit)` that last made `row` visible.
    pub fn last_touch(&self, row: &Row) -> Option<Touch> {
        self.derivations.get(row).map(|e| e.touch)
    }

    /// Set the stamp for rows that become visible from now on.
    pub fn set_touch(&mut self, touch: Touch) {
        self.touch = touch;
    }

    /// Iterate over visible rows.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.derivations
            .iter()
            .filter(|(_, e)| e.count > 0)
            .map(|(r, _)| r)
    }

    /// Iterate over every stored row with its derivation count, including
    /// rows whose count is zero or (after an invariant violation)
    /// negative. This is the oracle's window into the store: a healthy
    /// store holds only positive counts.
    pub fn rows_with_counts(&self) -> impl Iterator<Item = (&Row, isize)> {
        self.derivations.iter().map(|(r, e)| (r, e.count))
    }

    /// Arm or disarm the `stale-arrangement` fault injection: when
    /// armed, arrangements are not maintained on retraction.
    pub fn set_stale_retractions(&mut self, on: bool) {
        self.stale_retractions = on;
    }

    /// Apply a Z-set of derivation-count changes. Returns the *set-level*
    /// delta: +1 rows that became visible, −1 rows that disappeared.
    /// Arrangements are maintained (and their maintenance cost timed
    /// into their pending stats). A row entering the store is stamped
    /// with the current [`RelationStore::set_touch`] value in the same
    /// entry, so the stamp costs no lookup of its own and is retracted
    /// with the row.
    ///
    /// Panics in debug builds if a count would go negative (an engine
    /// invariant violation).
    pub fn apply_derivation_delta(&mut self, delta: &ZSet<Row>) -> ZSet<Row> {
        let mut set_delta = ZSet::new();
        for (row, w) in delta.iter() {
            let entry = self.derivations.entry(row.clone()).or_insert(RowEntry {
                count: 0,
                touch: self.touch,
            });
            let old = entry.count;
            // Saturating, like ZSet weight arithmetic: a wrapped count
            // would flip sign and corrupt visibility decisions.
            let new = old.saturating_add(w);
            debug_assert!(
                new >= 0,
                "derivation count for {row:?} in `{}` went negative",
                self.name
            );
            entry.count = new;
            if old == 0 && new != 0 {
                self.bytes += row_bytes(row);
            }
            if new == 0 {
                self.derivations.remove(row);
                self.bytes = self.bytes.saturating_sub(row_bytes(row));
            }
            if old <= 0 && new > 0 {
                self.live_rows += 1;
                set_delta.add(row.clone(), 1);
            } else if old > 0 && new <= 0 {
                self.live_rows -= 1;
                set_delta.add(row.clone(), -1);
            }
        }
        if !set_delta.is_empty() {
            for arr in &mut self.arrangements {
                let (grown, freed) = arr.apply(&set_delta, self.stale_retractions);
                self.bytes += grown;
                self.bytes = self.bytes.saturating_sub(freed);
            }
        }
        set_delta
    }

    /// Look up rows by an arrangement. Returns an empty iterator when
    /// the key is absent. Panics if the arrangement was not registered.
    pub fn lookup<'a>(
        &'a self,
        cols: &[usize],
        key: &Key,
    ) -> Box<dyn Iterator<Item = &'a Row> + 'a> {
        let arr = self.arrangement(cols);
        match arr.get(key) {
            Some(set) => Box::new(set.iter()),
            None => Box::new(std::iter::empty()),
        }
    }

    /// Number of visible rows matching `key` under the `cols` index.
    pub fn lookup_count(&self, cols: &[usize], key: &Key) -> usize {
        self.arrangement(cols).len_of(key)
    }

    /// The widest registered arrangement whose key columns `pattern`
    /// all fixes (`Some`), the earliest registered among equals — what
    /// [`crate::recursive::View::probe`] keys on.
    pub(crate) fn covering(&self, pattern: &[Option<Value>]) -> Option<&Arrangement> {
        let covers = |a: &&Arrangement| a.cols().iter().all(|c| pattern[*c].is_some());
        let mut best: Option<&Arrangement> = None;
        for a in self.arrangements.iter().filter(covers) {
            if best.is_none_or(|b| a.cols().len() > b.cols().len()) {
                best = Some(a);
            }
        }
        best
    }

    fn arrangement(&self, cols: &[usize]) -> &Arrangement {
        let idx = self
            .by_cols
            .get(cols)
            .unwrap_or_else(|| panic!("arrangement {cols:?} not registered on `{}`", self.name));
        &self.arrangements[*idx]
    }

    /// Drain pending maintenance stats of every cataloged arrangement:
    /// `(catalog id, stats)` pairs for the ones that did work.
    pub fn take_arrangement_stats(&mut self) -> Vec<(usize, ArrStats)> {
        self.arrangements
            .iter_mut()
            .filter_map(|a| {
                let global = a.global()?;
                let stats = a.take_stats();
                (stats.invocations > 0).then_some((global, stats))
            })
            .collect()
    }

    /// Validate every arrangement against an index built from scratch
    /// over the current visible rows — the arrangement-drift detector.
    pub fn validate_arrangements(&self) -> Result<(), String> {
        for arr in &self.arrangements {
            arr.validate(self.rows(), &self.name)?;
        }
        Ok(())
    }

    /// Approximate resident bytes (rows + arrangement entries), used by
    /// the memory-overhead experiment (E5). O(1): the count is
    /// maintained incrementally on every applied delta.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Recompute [`RelationStore::approx_bytes`] from scratch by walking
    /// the full store. Test/debug aid for validating the incremental
    /// accounting.
    pub fn approx_bytes_recompute(&self) -> usize {
        let rows: usize = self.derivations.keys().map(row_bytes).sum();
        let index_bytes: usize = self
            .arrangements
            .iter()
            .map(Arrangement::recompute_bytes)
            .sum();
        rows + index_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::row;

    fn r(vals: &[i128]) -> Row {
        row(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    #[test]
    fn derivation_counting_and_set_delta() {
        let mut s = RelationStore::new("R", 1);
        let mut d = ZSet::new();
        d.add(r(&[1]), 2); // two derivations of the same row
        let sd = s.apply_derivation_delta(&d);
        assert_eq!(sd.weight(&r(&[1])), 1); // visible once
        assert_eq!(s.len(), 1);

        // Remove one derivation: still visible, no set-level change.
        let sd = s.apply_derivation_delta(&ZSet::singleton(r(&[1]), -1));
        assert!(sd.is_empty());
        assert!(s.contains(&r(&[1])));

        // Remove the last derivation: disappears.
        let sd = s.apply_derivation_delta(&ZSet::singleton(r(&[1]), -1));
        assert_eq!(sd.weight(&r(&[1])), -1);
        assert!(s.is_empty());
    }

    #[test]
    fn index_maintenance() {
        let mut s = RelationStore::new("R", 2);
        s.register_arrangement(&[0], None);
        let mut d = ZSet::new();
        d.add(r(&[1, 10]), 1);
        d.add(r(&[1, 20]), 1);
        d.add(r(&[2, 30]), 1);
        s.apply_derivation_delta(&d);

        let key = vec![Value::Int(1)];
        assert_eq!(s.lookup(&[0], &key).count(), 2);
        assert_eq!(s.lookup_count(&[0], &key), 2);
        assert_eq!(s.lookup(&[0], &vec![Value::Int(9)]).count(), 0);

        s.apply_derivation_delta(&ZSet::singleton(r(&[1, 10]), -1));
        assert_eq!(s.lookup(&[0], &key).count(), 1);
        s.validate_arrangements().unwrap();
    }

    #[test]
    fn touch_stamp_lives_and_dies_with_the_row_entry() {
        let mut s = RelationStore::new("R", 1);
        s.set_touch((7, 1));
        s.apply_derivation_delta(&ZSet::singleton(r(&[1]), 1));
        s.set_touch((8, 2));
        // A second derivation of a visible row is not a touch.
        s.apply_derivation_delta(&ZSet::singleton(r(&[1]), 1));
        s.apply_derivation_delta(&ZSet::singleton(r(&[2]), 1));
        assert_eq!(s.last_touch(&r(&[1])), Some((7, 1)));
        assert_eq!(s.last_touch(&r(&[2])), Some((8, 2)));
        s.apply_derivation_delta(&ZSet::singleton(r(&[1]), -2));
        assert_eq!(s.last_touch(&r(&[1])), None);
        assert_eq!(s.approx_bytes(), s.approx_bytes_recompute());
    }

    #[test]
    fn late_registered_index_only_sees_new_rows() {
        // Contract: register indexes before inserting (compile time).
        let mut s = RelationStore::new("R", 2);
        s.apply_derivation_delta(&ZSet::singleton(r(&[5, 1]), 1));
        s.register_arrangement(&[0], None);
        // The pre-existing row is not in the late index — this documents
        // why registration must precede data.
        assert_eq!(s.lookup(&[0], &vec![Value::Int(5)]).count(), 0);
    }

    #[test]
    fn stale_retractions_leave_ghost_rows() {
        let mut s = RelationStore::new("R", 2);
        s.register_arrangement(&[0], None);
        s.apply_derivation_delta(&ZSet::singleton(r(&[1, 10]), 1));
        s.set_stale_retractions(true);
        s.apply_derivation_delta(&ZSet::singleton(r(&[1, 10]), -1));
        // The row is gone from the store but still visible via the
        // arrangement — exactly the drift the oracle must catch.
        assert!(!s.contains(&r(&[1, 10])));
        assert_eq!(s.lookup(&[0], &vec![Value::Int(1)]).count(), 1);
        assert!(s.validate_arrangements().is_err());
    }

    #[test]
    fn incremental_bytes_match_recompute_after_churn() {
        let mut s = RelationStore::new("R", 2);
        s.register_arrangement(&[0], None);
        s.register_arrangement(&[1], None);
        for i in 0..50 {
            s.apply_derivation_delta(&ZSet::singleton(r(&[i % 7, i]), 1));
        }
        // Extra derivations, partial deletes, full deletes.
        for i in 0..50 {
            if i % 3 == 0 {
                s.apply_derivation_delta(&ZSet::singleton(r(&[i % 7, i]), 1));
            }
            if i % 2 == 0 {
                s.apply_derivation_delta(&ZSet::singleton(r(&[i % 7, i]), -1));
            }
        }
        assert_eq!(s.approx_bytes(), s.approx_bytes_recompute());
        assert!(s.approx_bytes() > 0);
        s.validate_arrangements().unwrap();
        // Draining everything returns the count to zero.
        let rows: Vec<(Row, isize)> = s.rows_with_counts().map(|(r, c)| (r.clone(), c)).collect();
        for (row, c) in rows {
            s.apply_derivation_delta(&ZSet::singleton(row, -c));
        }
        assert_eq!(s.approx_bytes(), 0);
        assert_eq!(s.approx_bytes_recompute(), 0);
    }

    #[test]
    fn approx_bytes_grows_with_indexes() {
        let mut a = RelationStore::new("A", 2);
        let mut b = RelationStore::new("B", 2);
        b.register_arrangement(&[0], None);
        b.register_arrangement(&[1], None);
        let mut d = ZSet::new();
        for i in 0..100 {
            d.add(r(&[i, i * 2]), 1);
        }
        a.apply_derivation_delta(&d);
        b.apply_derivation_delta(&d);
        assert!(b.approx_bytes() > a.approx_bytes());
    }

    #[test]
    fn arrangement_stats_flow_to_cataloged_ids() {
        let mut s = RelationStore::new("R", 2);
        s.register_arrangement(&[0], Some(7));
        s.register_arrangement(&[1], None); // uncataloged: no stats reported
        s.apply_derivation_delta(&ZSet::singleton(r(&[1, 2]), 1));
        let stats = s.take_arrangement_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, 7);
        assert_eq!(stats[0].1.tuples, 1);
        assert!(s.take_arrangement_stats().is_empty(), "stats drained");
    }
}
