//! Persistent keyed arrangements: incrementally maintained hash indexes
//! over a relation's visible rows, shared between every operator that
//! probes the same `(relation, key columns)` pair.
//!
//! This is the differential-dataflow idea the real DDlog runtime is
//! built on: instead of scanning a relation per commit (cost ∝ state),
//! every join, antijoin, and driven recursive probe hits an arrangement
//! that was updated alongside the z-set (cost ∝ delta). Arrangements are
//! created at plan time (before any data arrives), deduplicated by their
//! key columns across operators, and their maintenance cost is accounted
//! as [`crate::profile::OpKind::Arrange`] operators so the
//! incrementality audit and `nerpa prof` see the work.

use std::collections::{HashMap, HashSet};

use crate::store::{value_bytes, Key};
use crate::value::Row;
use crate::zset::ZSet;

/// Cost of one arrangement entry (an `Arc` clone of the row plus set
/// overhead).
pub(crate) const ARRANGE_ENTRY_BYTES: usize = std::mem::size_of::<Row>() + 16;

/// Pending (not yet flushed) maintenance counters of one arrangement.
/// The engine drains these into the commit's [`crate::WorkProfile`] as
/// the arrangement's `Arrange` operator stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrStats {
    /// Maintenance batches applied (one per set-level delta).
    pub invocations: u64,
    /// Rows inserted into or retracted from the index.
    pub tuples: u64,
    /// Largest single maintenance batch.
    pub peak: u64,
    /// Wall time spent maintaining the index, nanoseconds.
    pub wall_ns: u64,
}

impl ArrStats {
    /// Drain the counters, returning the accumulated values.
    pub fn take(&mut self) -> ArrStats {
        std::mem::take(self)
    }
}

/// One maintained hash index over a relation's visible rows, keyed by a
/// fixed ascending column subset.
#[derive(Debug, Clone)]
pub struct Arrangement {
    /// The key columns, ascending.
    cols: Vec<usize>,
    /// Index into the compiled program's arrangement catalog (drives the
    /// `Arrange` operator this index is accounted to). `None` for
    /// ad-hoc arrangements created outside planning (tests).
    global: Option<usize>,
    map: HashMap<Key, HashSet<Row>>,
    pending: ArrStats,
}

impl Arrangement {
    /// An empty arrangement over `cols`.
    pub fn new(cols: &[usize], global: Option<usize>) -> Arrangement {
        Arrangement {
            cols: cols.to_vec(),
            global,
            map: HashMap::new(),
            pending: ArrStats::default(),
        }
    }

    /// The key columns.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The catalog id this arrangement is accounted to, if any.
    pub fn global(&self) -> Option<usize> {
        self.global
    }

    /// Upgrade an ad-hoc arrangement to a cataloged one (idempotent).
    pub fn set_global(&mut self, global: usize) {
        self.global.get_or_insert(global);
    }

    fn project(&self, row: &Row) -> Key {
        self.cols.iter().map(|c| row[*c].clone()).collect()
    }

    /// Rows matching `key`, or `None` when the key is absent.
    pub fn get(&self, key: &Key) -> Option<&HashSet<Row>> {
        self.map.get(key)
    }

    /// Number of rows matching `key`.
    pub fn len_of(&self, key: &Key) -> usize {
        self.map.get(key).map(HashSet::len).unwrap_or(0)
    }

    /// Insert one row; returns the approx-bytes growth.
    fn insert(&mut self, row: &Row) -> usize {
        let key = self.project(row);
        let key_cost: usize = key.iter().map(value_bytes).sum();
        match self.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                if o.get_mut().insert(row.clone()) {
                    ARRANGE_ENTRY_BYTES
                } else {
                    0
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(HashSet::from([row.clone()]));
                key_cost + ARRANGE_ENTRY_BYTES
            }
        }
    }

    /// Remove one row; returns the approx-bytes shrinkage.
    fn remove(&mut self, row: &Row) -> usize {
        let key = self.project(row);
        let mut freed = 0;
        if let Some(set) = self.map.get_mut(&key) {
            if set.remove(row) {
                freed += ARRANGE_ENTRY_BYTES;
            }
            if set.is_empty() {
                freed += key.iter().map(value_bytes).sum::<usize>();
                self.map.remove(&key);
            }
        }
        freed
    }

    /// Apply one set-level delta (+1 visible, −1 gone), timing the batch
    /// into the pending stats. When `skip_retractions` is set (the
    /// oracle's `stale-arrangement` fault injection), −1 rows are left
    /// in the index — a correctness bug the differential harness must
    /// catch. Returns `(bytes_grown, bytes_freed)`.
    pub fn apply(&mut self, set_delta: &ZSet<Row>, skip_retractions: bool) -> (usize, usize) {
        let t0 = std::time::Instant::now();
        let (mut grown, mut freed) = (0usize, 0usize);
        for (row, w) in set_delta.iter() {
            if w > 0 {
                grown += self.insert(row);
            } else if !skip_retractions {
                freed += self.remove(row);
            }
        }
        let batch = set_delta.len() as u64;
        self.pending.invocations += 1;
        self.pending.tuples += batch;
        self.pending.peak = self.pending.peak.max(batch);
        self.pending.wall_ns += t0.elapsed().as_nanos() as u64;
        (grown, freed)
    }

    /// Drain the pending maintenance counters.
    pub fn take_stats(&mut self) -> ArrStats {
        self.pending.take()
    }

    /// Recompute this arrangement's approx-bytes share by walking it.
    pub fn recompute_bytes(&self) -> usize {
        self.map
            .iter()
            .map(|(k, set)| {
                k.iter().map(value_bytes).sum::<usize>() + set.len() * ARRANGE_ENTRY_BYTES
            })
            .sum()
    }

    /// Approximate resident bytes of the rows referenced through this
    /// arrangement if each entry held its own row copy — used only for
    /// diagnostics; entries actually share `Arc`s with the store.
    pub fn entries(&self) -> usize {
        self.map.values().map(HashSet::len).sum()
    }

    /// Check that the incrementally maintained index equals one built
    /// from scratch over `rows` (the relation's current visible rows).
    /// This is the arrangement-drift detector the test suite and the
    /// oracle demos lean on.
    pub fn validate<'a>(
        &self,
        rows: impl Iterator<Item = &'a Row>,
        relation: &str,
    ) -> Result<(), String> {
        let mut fresh: HashMap<Key, HashSet<Row>> = HashMap::new();
        for row in rows {
            fresh
                .entry(self.project(row))
                .or_default()
                .insert(row.clone());
        }
        if fresh == self.map {
            return Ok(());
        }
        // Report the first divergent key deterministically.
        let mut keys: Vec<&Key> = fresh.keys().chain(self.map.keys()).collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            let want = fresh.get(key).map(HashSet::len).unwrap_or(0);
            let got = self.map.get(key).map(HashSet::len).unwrap_or(0);
            if want != got {
                return Err(format!(
                    "arrangement `{relation}` by {:?} diverged at key {key:?}: \
                     index holds {got} rows, store holds {want}",
                    self.cols
                ));
            }
        }
        Err(format!(
            "arrangement `{relation}` by {:?} diverged (same sizes, different rows)",
            self.cols
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{row, Value};

    fn r(vals: &[i128]) -> Row {
        row(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    #[test]
    fn maintenance_matches_scratch_build() {
        let mut arr = Arrangement::new(&[0], None);
        let mut live: Vec<Row> = Vec::new();
        for i in 0..40 {
            let row = r(&[i % 5, i]);
            let mut d = ZSet::new();
            d.add(row.clone(), 1);
            arr.apply(&d, false);
            live.push(row);
        }
        // Retract every third row.
        live.retain(|row| {
            if row[1] == Value::Int(3) || row[1] == Value::Int(6) {
                let mut d = ZSet::new();
                d.add(row.clone(), -1);
                arr.apply(&d, false);
                false
            } else {
                true
            }
        });
        arr.validate(live.iter(), "T").unwrap();
        assert_eq!(arr.entries(), live.len());
    }

    #[test]
    fn skipped_retraction_is_detected() {
        let mut arr = Arrangement::new(&[0], None);
        let row = r(&[1, 2]);
        let mut d = ZSet::new();
        d.add(row.clone(), 1);
        arr.apply(&d, false);
        let mut del = ZSet::new();
        del.add(row, -1);
        arr.apply(&del, true); // stale-arrangement fault
        let live: Vec<Row> = Vec::new();
        let err = arr.validate(live.iter(), "T").unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn stats_accumulate_and_drain() {
        let mut arr = Arrangement::new(&[0], Some(3));
        let mut d = ZSet::new();
        d.add(r(&[1, 1]), 1);
        d.add(r(&[2, 2]), 1);
        arr.apply(&d, false);
        let s = arr.take_stats();
        assert_eq!(s.invocations, 1);
        assert_eq!(s.tuples, 2);
        assert_eq!(s.peak, 2);
        assert_eq!(arr.take_stats(), ArrStats::default());
        assert_eq!(arr.global(), Some(3));
    }

    #[test]
    fn byte_accounting_balances() {
        let mut arr = Arrangement::new(&[1], None);
        let rows = [r(&[1, 7]), r(&[2, 7]), r(&[3, 8])];
        let mut grown_total = 0;
        for row in &rows {
            let mut d = ZSet::new();
            d.add(row.clone(), 1);
            let (g, f) = arr.apply(&d, false);
            grown_total += g;
            assert_eq!(f, 0);
        }
        assert_eq!(grown_total, arr.recompute_bytes());
        let mut freed_total = 0;
        for row in &rows {
            let mut d = ZSet::new();
            d.add(row.clone(), -1);
            let (g, f) = arr.apply(&d, false);
            assert_eq!(g, 0);
            freed_total += f;
        }
        assert_eq!(freed_total, grown_total);
        assert_eq!(arr.recompute_bytes(), 0);
    }
}
