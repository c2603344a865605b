//! Runtime match-action tables: storage, matching, and updates.
//!
//! Exact-only tables match via a hash map; tables with LPM or ternary
//! components scan entries in (priority, prefix-length) order — adequate
//! for the table sizes SDN control planes install in software switches.

use std::collections::HashMap;

use crate::ast::{MatchKind, TableDecl};
use crate::runtime::{FieldMatch, TableEntry, Update, WriteOp};

/// A populated runtime table.
#[derive(Debug, Clone)]
pub struct RuntimeTable {
    /// Static declaration (keys, actions, default action).
    pub decl: TableDecl,
    /// True when every key is exact (enables hash matching).
    all_exact: bool,
    /// Hash index for all-exact tables: key values → entry index.
    exact_index: HashMap<Vec<u128>, usize>,
    /// All entries. Order is maintained sorted for scan matching:
    /// descending priority, then descending total prefix length.
    entries: Vec<TableEntry>,
    /// Lookup counter (table hits + misses), for the stats surface.
    pub lookups: u64,
    /// Hit counter.
    pub hits: u64,
}

impl RuntimeTable {
    /// Create an empty table for a declaration.
    pub fn new(decl: TableDecl) -> RuntimeTable {
        let all_exact = decl.keys.iter().all(|k| k.kind == MatchKind::Exact);
        RuntimeTable {
            decl,
            all_exact,
            exact_index: HashMap::new(),
            entries: Vec::new(),
            lookups: 0,
            hits: 0,
        }
    }

    /// Current entries (arbitrary but deterministic order).
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Validate an entry against the declaration.
    pub fn validate(&self, entry: &TableEntry) -> Result<(), String> {
        if entry.matches.len() != self.decl.keys.len() {
            return Err(format!(
                "table `{}` has {} key field(s), entry has {}",
                self.decl.name,
                self.decl.keys.len(),
                entry.matches.len()
            ));
        }
        for (m, k) in entry.matches.iter().zip(&self.decl.keys) {
            let ok = matches!(
                (m, k.kind),
                (FieldMatch::Exact { .. }, MatchKind::Exact)
                    | (FieldMatch::Lpm { .. }, MatchKind::Lpm)
                    | (FieldMatch::Ternary { .. }, MatchKind::Ternary)
            );
            if !ok {
                return Err(format!(
                    "match kind mismatch on `{}` key `{}` ({})",
                    self.decl.name,
                    k.name,
                    k.kind.name()
                ));
            }
            let max = crate::mask(u128::MAX, k.width);
            let value_ok = match m {
                FieldMatch::Exact { value } => *value <= max,
                FieldMatch::Lpm { value, prefix_len } => *value <= max && *prefix_len <= k.width,
                FieldMatch::Ternary { value, mask } => *value <= max && *mask <= max,
            };
            if !value_ok {
                return Err(format!(
                    "value out of range for `{}` key `{}` (bit<{}>)",
                    self.decl.name, k.name, k.width
                ));
            }
        }
        if entry.action != "NoAction" && !self.decl.actions.contains(&entry.action) {
            return Err(format!(
                "table `{}` does not allow action `{}`",
                self.decl.name, entry.action
            ));
        }
        Ok(())
    }

    fn exact_key(entry: &TableEntry) -> Vec<u128> {
        entry
            .matches
            .iter()
            .map(|m| match m {
                FieldMatch::Exact { value } => *value,
                _ => unreachable!("exact_key on non-exact table"),
            })
            .collect()
    }

    /// Two entries conflict (same match space identity) when their match
    /// fields and priority are equal.
    fn same_key(a: &TableEntry, b: &TableEntry) -> bool {
        a.matches == b.matches && a.priority == b.priority
    }

    fn resort(&mut self) {
        self.entries.sort_by(|a, b| {
            let pa = (b.priority, total_prefix(b));
            let pb = (a.priority, total_prefix(a));
            pa.cmp(&pb).then_with(|| a.cmp(b))
        });
    }

    /// The installed entry with the same match key and priority, if any.
    pub fn get_same_key(&self, entry: &TableEntry) -> Option<&TableEntry> {
        if self.all_exact {
            // Exact tables can use the hash index when the kinds line up.
            let ok = entry
                .matches
                .iter()
                .all(|m| matches!(m, FieldMatch::Exact { .. }))
                && entry.matches.len() == self.decl.keys.len();
            if ok {
                return self
                    .exact_index
                    .get(&Self::exact_key(entry))
                    .map(|i| &self.entries[*i])
                    .filter(|e| Self::same_key(e, entry));
            }
            return None;
        }
        self.entries.iter().find(|e| Self::same_key(e, entry))
    }

    /// Apply one update. Exact-only tables are maintained in O(1) via the
    /// hash index; scan tables (lpm/ternary) re-sort, which is fine at
    /// their typical sizes.
    pub fn apply(&mut self, update: &Update) -> Result<(), String> {
        self.validate(&update.entry)?;
        if self.all_exact {
            let key = Self::exact_key(&update.entry);
            let pos = self
                .exact_index
                .get(&key)
                .copied()
                .filter(|i| Self::same_key(&self.entries[*i], &update.entry));
            match (update.op, pos) {
                (WriteOp::Insert, None) => {
                    self.entries.push(update.entry.clone());
                    self.exact_index.insert(key, self.entries.len() - 1);
                }
                (WriteOp::Insert, Some(_)) => {
                    return Err(format!("duplicate entry in `{}`", self.decl.name))
                }
                (WriteOp::Modify, Some(i)) => self.entries[i] = update.entry.clone(),
                (WriteOp::Modify, None) | (WriteOp::Delete, None) => {
                    return Err(format!("no such entry in `{}`", self.decl.name))
                }
                (WriteOp::Delete, Some(i)) => {
                    self.entries.swap_remove(i);
                    self.exact_index.remove(&key);
                    if i < self.entries.len() {
                        // Fix the index of the entry that moved into slot i.
                        let moved = Self::exact_key(&self.entries[i]);
                        self.exact_index.insert(moved, i);
                    }
                }
            }
            return Ok(());
        }
        let pos = self
            .entries
            .iter()
            .position(|e| Self::same_key(e, &update.entry));
        match (update.op, pos) {
            (WriteOp::Insert, None) => self.entries.push(update.entry.clone()),
            (WriteOp::Insert, Some(_)) => {
                return Err(format!("duplicate entry in `{}`", self.decl.name))
            }
            (WriteOp::Modify, Some(i)) => self.entries[i] = update.entry.clone(),
            (WriteOp::Modify, None) | (WriteOp::Delete, None) => {
                return Err(format!("no such entry in `{}`", self.decl.name))
            }
            (WriteOp::Delete, Some(i)) => {
                self.entries.remove(i);
            }
        }
        self.resort();
        Ok(())
    }
}

fn total_prefix(e: &TableEntry) -> u32 {
    e.matches
        .iter()
        .map(|m| match m {
            FieldMatch::Lpm { prefix_len, .. } => *prefix_len as u32,
            FieldMatch::Exact { .. } => 128,
            FieldMatch::Ternary { mask, .. } => mask.count_ones(),
        })
        .sum()
}

impl RuntimeTable {
    /// Width-aware matching for tables with LPM keys: `widths` gives the
    /// bit width of each key field.
    pub fn lookup_with_widths(&mut self, key: &[u128]) -> Option<(String, Vec<u128>)> {
        self.lookups += 1;
        if self.all_exact && !self.entries.is_empty() {
            if let Some(&i) = self.exact_index.get(key) {
                self.hits += 1;
                let e = &self.entries[i];
                return Some((e.action.clone(), e.params.clone()));
            }
            return self
                .decl
                .default_action
                .as_ref()
                .map(|(a, args)| (a.clone(), args.clone()));
        }
        let widths: Vec<u16> = self.decl.keys.iter().map(|k| k.width).collect();
        for e in &self.entries {
            let ok = e
                .matches
                .iter()
                .zip(key)
                .zip(&widths)
                .all(|((m, v), w)| match m {
                    FieldMatch::Exact { value } => value == v,
                    FieldMatch::Lpm { value, prefix_len } => {
                        if *prefix_len == 0 {
                            return true;
                        }
                        let host_bits = w - prefix_len.min(w);
                        let host = if host_bits == 0 {
                            0
                        } else {
                            crate::mask(u128::MAX, host_bits)
                        };
                        let mask = crate::mask(u128::MAX, *w) & !host;
                        (v & mask) == (value & mask)
                    }
                    FieldMatch::Ternary { value, mask } => (v & mask) == *value,
                });
            if ok {
                self.hits += 1;
                return Some((e.action.clone(), e.params.clone()));
            }
        }
        self.decl
            .default_action
            .as_ref()
            .map(|(a, args)| (a.clone(), args.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{LValue, TableKey};

    fn decl(kinds: &[(MatchKind, u16)]) -> TableDecl {
        TableDecl {
            name: "T".into(),
            keys: kinds
                .iter()
                .enumerate()
                .map(|(i, (k, w))| TableKey {
                    field: LValue::Name(format!("k{i}")),
                    kind: *k,
                    name: format!("k{i}"),
                    width: *w,
                })
                .collect(),
            actions: vec!["act".into()],
            default_action: Some(("miss".into(), vec![])),
            size: 16,
        }
    }

    fn entry(matches: Vec<FieldMatch>, priority: i32, param: u128) -> TableEntry {
        TableEntry {
            table: "T".into(),
            matches,
            priority,
            action: "act".into(),
            params: vec![param],
        }
    }

    #[test]
    fn exact_match_and_default() {
        let mut t = RuntimeTable::new(decl(&[(MatchKind::Exact, 9)]));
        t.apply(&Update {
            op: WriteOp::Insert,
            entry: entry(vec![FieldMatch::Exact { value: 5 }], 0, 100),
        })
        .unwrap();
        assert_eq!(t.lookup_with_widths(&[5]), Some(("act".into(), vec![100])));
        assert_eq!(t.lookup_with_widths(&[6]), Some(("miss".into(), vec![])));
        assert_eq!(t.lookups, 2);
        assert_eq!(t.hits, 1);
    }

    #[test]
    fn insert_modify_delete_semantics() {
        let mut t = RuntimeTable::new(decl(&[(MatchKind::Exact, 9)]));
        let e = entry(vec![FieldMatch::Exact { value: 1 }], 0, 7);
        t.apply(&Update {
            op: WriteOp::Insert,
            entry: e.clone(),
        })
        .unwrap();
        // Duplicate insert rejected.
        assert!(t
            .apply(&Update {
                op: WriteOp::Insert,
                entry: e.clone()
            })
            .is_err());
        // Modify changes the action data.
        let mut e2 = e.clone();
        e2.params = vec![9];
        t.apply(&Update {
            op: WriteOp::Modify,
            entry: e2,
        })
        .unwrap();
        assert_eq!(t.lookup_with_widths(&[1]), Some(("act".into(), vec![9])));
        // Delete removes; second delete errors.
        t.apply(&Update {
            op: WriteOp::Delete,
            entry: e.clone(),
        })
        .unwrap();
        assert!(t
            .apply(&Update {
                op: WriteOp::Delete,
                entry: e
            })
            .is_err());
        assert!(t.is_empty());
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let mut t = RuntimeTable::new(decl(&[(MatchKind::Lpm, 32)]));
        // 10.0.0.0/8 → 1, 10.1.0.0/16 → 2
        t.apply(&Update {
            op: WriteOp::Insert,
            entry: entry(
                vec![FieldMatch::Lpm {
                    value: 0x0a000000,
                    prefix_len: 8,
                }],
                0,
                1,
            ),
        })
        .unwrap();
        t.apply(&Update {
            op: WriteOp::Insert,
            entry: entry(
                vec![FieldMatch::Lpm {
                    value: 0x0a010000,
                    prefix_len: 16,
                }],
                0,
                2,
            ),
        })
        .unwrap();
        assert_eq!(t.lookup_with_widths(&[0x0a010203]).unwrap().1, vec![2]);
        assert_eq!(t.lookup_with_widths(&[0x0a990203]).unwrap().1, vec![1]);
        assert_eq!(t.lookup_with_widths(&[0x0b000001]).unwrap().0, "miss");
        // /0 default route matches everything.
        t.apply(&Update {
            op: WriteOp::Insert,
            entry: entry(
                vec![FieldMatch::Lpm {
                    value: 0,
                    prefix_len: 0,
                }],
                0,
                3,
            ),
        })
        .unwrap();
        assert_eq!(t.lookup_with_widths(&[0x0b000001]).unwrap().1, vec![3]);
    }

    #[test]
    fn ternary_priority() {
        let mut t = RuntimeTable::new(decl(&[(MatchKind::Ternary, 16)]));
        t.apply(&Update {
            op: WriteOp::Insert,
            entry: entry(
                vec![FieldMatch::Ternary {
                    value: 0x0100,
                    mask: 0xff00,
                }],
                10,
                1,
            ),
        })
        .unwrap();
        t.apply(&Update {
            op: WriteOp::Insert,
            entry: entry(
                vec![FieldMatch::Ternary {
                    value: 0x0101,
                    mask: 0xffff,
                }],
                20,
                2,
            ),
        })
        .unwrap();
        // Both match 0x0101; priority 20 wins.
        assert_eq!(t.lookup_with_widths(&[0x0101]).unwrap().1, vec![2]);
        assert_eq!(t.lookup_with_widths(&[0x0102]).unwrap().1, vec![1]);
    }

    #[test]
    fn equal_rank_ties_break_the_same_in_any_insert_order() {
        // Same priority and care-bit count: both of the first two match
        // 0x0101, so only the tie-break picks the winner.
        let ternary =
            |value, mask, param| entry(vec![FieldMatch::Ternary { value, mask }], 10, param);
        let entries = [
            ternary(0x0100, 0xff00, 1),
            ternary(0x0001, 0x00ff, 2),
            ternary(0x0200, 0xff00, 3),
        ];
        let table = |order: &[usize]| {
            let mut t = RuntimeTable::new(decl(&[(MatchKind::Ternary, 16)]));
            for &i in order {
                t.apply(&Update {
                    op: WriteOp::Insert,
                    entry: entries[i].clone(),
                })
                .unwrap();
            }
            t
        };
        let (mut forward, mut backward) = (table(&[0, 1, 2]), table(&[2, 1, 0]));
        assert_eq!(forward.entries(), backward.entries());
        let winner = forward.lookup_with_widths(&[0x0101]).unwrap();
        assert_eq!(backward.lookup_with_widths(&[0x0101]).unwrap(), winner);
        assert_eq!(winner.1, vec![2], "the lesser entry by `Ord` wins a tie");
    }

    #[test]
    fn validation_errors() {
        let mut t = RuntimeTable::new(decl(&[(MatchKind::Exact, 9)]));
        // wrong arity
        assert!(t
            .apply(&Update {
                op: WriteOp::Insert,
                entry: entry(vec![], 0, 0)
            })
            .is_err());
        // wrong kind
        assert!(t
            .apply(&Update {
                op: WriteOp::Insert,
                entry: entry(vec![FieldMatch::Ternary { value: 0, mask: 0 }], 0, 0),
            })
            .is_err());
        // value exceeds bit<9>
        assert!(t
            .apply(&Update {
                op: WriteOp::Insert,
                entry: entry(vec![FieldMatch::Exact { value: 512 }], 0, 0),
            })
            .is_err());
        // unknown action
        let mut e = entry(vec![FieldMatch::Exact { value: 1 }], 0, 0);
        e.action = "zap".into();
        assert!(t
            .apply(&Update {
                op: WriteOp::Insert,
                entry: e
            })
            .is_err());
    }
}
