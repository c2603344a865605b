//! Z-sets: multisets with signed integer weights.
//!
//! A Z-set maps elements to non-zero weights. Relation *contents* are
//! Z-sets with positive weights (derivation counts); relation *changes*
//! (deltas) are Z-sets where positive weight means insertion and negative
//! means deletion. All incremental evaluation in [`crate::chain`] is
//! expressed as algebra over Z-sets, following the DBSP/IVM literature the
//! paper builds on.

use std::collections::HashMap;
use std::hash::Hash;

/// A finite map from elements to non-zero `isize` weights.
///
/// The invariant "no zero weights are stored" is maintained by every
/// mutating operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZSet<T: Eq + Hash> {
    entries: HashMap<T, isize>,
}

impl<T: Eq + Hash> Default for ZSet<T> {
    fn default() -> Self {
        ZSet {
            entries: HashMap::new(),
        }
    }
}

impl<T: Eq + Hash + Clone> ZSet<T> {
    /// The empty Z-set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A Z-set containing a single element with the given weight.
    pub fn singleton(elem: T, weight: isize) -> Self {
        let mut z = Self::new();
        z.add(elem, weight);
        z
    }

    /// Number of distinct elements with non-zero weight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no element has non-zero weight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight of `elem` (0 if absent).
    pub fn weight(&self, elem: &T) -> isize {
        self.entries.get(elem).copied().unwrap_or(0)
    }

    /// Add `weight` to the weight of `elem`, removing it if it becomes 0.
    ///
    /// Weight arithmetic saturates: an overflowing sum clamps at
    /// `isize::MAX`/`isize::MIN` instead of silently wrapping (wrapping
    /// would flip a huge positive derivation count negative, corrupting
    /// every downstream distinct/negation decision).
    pub fn add(&mut self, elem: T, weight: isize) {
        if weight == 0 {
            return;
        }
        match self.entries.entry(elem) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let w = o.get_mut();
                *w = w.saturating_add(weight);
                if *w == 0 {
                    o.remove();
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(weight);
            }
        }
    }

    /// Add every entry of `other` into `self` (Z-set addition).
    pub fn add_all(&mut self, other: &ZSet<T>) {
        for (e, w) in other.iter() {
            self.add(e.clone(), w);
        }
    }

    /// Consume `other`, adding its entries into `self`.
    pub fn merge(&mut self, other: ZSet<T>) {
        for (e, w) in other.entries {
            self.add(e, w);
        }
    }

    /// Iterate over `(element, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&T, isize)> {
        self.entries.iter().map(|(e, w)| (e, *w))
    }

    /// The negation (all weights flipped).
    pub fn negate(&self) -> ZSet<T> {
        ZSet {
            entries: self.entries.iter().map(|(e, w)| (e.clone(), -w)).collect(),
        }
    }

    /// The *distinct* projection: every element with weight > 0 maps to
    /// weight 1. This converts a derivation-counted multiset to its set
    /// semantics.
    pub fn distinct(&self) -> ZSet<T> {
        ZSet {
            entries: self
                .entries
                .iter()
                .filter(|(_, w)| **w > 0)
                .map(|(e, _)| (e.clone(), 1))
                .collect(),
        }
    }

    /// Given that `self` is the current *contents* (positive weights) and
    /// `delta` is about to be added, return the change in the distinct
    /// (set-semantics) view: +1 for elements going 0 → >0, −1 for
    /// elements going >0 → 0.
    pub fn distinct_delta(&self, delta: &ZSet<T>) -> ZSet<T> {
        let mut out = ZSet::new();
        for (e, w) in delta.iter() {
            let old = self.weight(e);
            let new = old.saturating_add(w);
            debug_assert!(new >= 0, "contents would go negative");
            if old <= 0 && new > 0 {
                out.add(e.clone(), 1);
            } else if old > 0 && new <= 0 {
                out.add(e.clone(), -1);
            }
        }
        out
    }

    /// True if every weight is positive.
    pub fn all_positive(&self) -> bool {
        self.entries.values().all(|w| *w > 0)
    }

    /// Elements with positive weight, ignoring multiplicity.
    pub fn support(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().filter(|(_, w)| **w > 0).map(|(e, _)| e)
    }

    /// Map elements through `f`, combining weights of collisions.
    pub fn map<U: Eq + Hash + Clone>(&self, mut f: impl FnMut(&T) -> U) -> ZSet<U> {
        let mut out = ZSet::new();
        for (e, w) in self.iter() {
            out.add(f(e), w);
        }
        out
    }

    /// Retain only elements satisfying the predicate.
    pub fn filter(&self, mut pred: impl FnMut(&T) -> bool) -> ZSet<T> {
        ZSet {
            entries: self
                .entries
                .iter()
                .filter(|(e, _)| pred(e))
                .map(|(e, w)| (e.clone(), *w))
                .collect(),
        }
    }
}

impl<T: Eq + Hash + Clone> FromIterator<(T, isize)> for ZSet<T> {
    fn from_iter<I: IntoIterator<Item = (T, isize)>>(iter: I) -> Self {
        let mut z = ZSet::new();
        for (e, w) in iter {
            z.add(e, w);
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z(pairs: &[(&str, isize)]) -> ZSet<String> {
        pairs.iter().map(|(s, w)| (s.to_string(), *w)).collect()
    }

    #[test]
    fn add_cancels_to_zero() {
        let mut s = ZSet::new();
        s.add("a", 2);
        s.add("a", -2);
        assert!(s.is_empty());
        assert_eq!(s.weight(&"a"), 0);
    }

    #[test]
    fn add_all_and_negate() {
        let a = z(&[("x", 1), ("y", 2)]);
        let b = a.negate();
        let mut c = a.clone();
        c.add_all(&b);
        assert!(c.is_empty());
    }

    #[test]
    fn distinct_clamps() {
        let a = z(&[("x", 3), ("y", 1), ("z", -1)]);
        let d = a.distinct();
        assert_eq!(d.weight(&"x".to_string()), 1);
        assert_eq!(d.weight(&"y".to_string()), 1);
        assert_eq!(d.weight(&"z".to_string()), 0);
    }

    #[test]
    fn distinct_delta_edges() {
        let contents = z(&[("a", 2), ("b", 1)]);
        // a: 2 -> 1 (no set change), b: 1 -> 0 (leaves), c: 0 -> 1 (enters)
        let delta = z(&[("a", -1), ("b", -1), ("c", 1)]);
        let dd = contents.distinct_delta(&delta);
        assert_eq!(dd.weight(&"a".to_string()), 0);
        assert_eq!(dd.weight(&"b".to_string()), -1);
        assert_eq!(dd.weight(&"c".to_string()), 1);
    }

    #[test]
    fn map_merges_collisions() {
        let a = z(&[("aa", 1), ("ab", 2), ("ba", 5)]);
        let m = a.map(|s| s.chars().next().unwrap());
        assert_eq!(m.weight(&'a'), 3);
        assert_eq!(m.weight(&'b'), 5);
    }

    #[test]
    fn filter_keeps_weights() {
        let a = z(&[("keep", 4), ("drop", 7)]);
        let f = a.filter(|s| s.starts_with('k'));
        assert_eq!(f.weight(&"keep".to_string()), 4);
        assert_eq!(f.len(), 1);
    }
}
