//! Incremental evaluation of non-recursive strata.
//!
//! Each rule's pipeline is processed as a chain of bilinear delta
//! operators. For a join stage with incoming binding delta δL and relation
//! delta δR, the output delta is
//!
//! ```text
//! δ(L ⋈ R) = δL ⋈ R_new  +  L_old ⋈ δR
//! ```
//!
//! where `R_new` is the relation store (already updated for this
//! transaction) and `L_old` is the stage's maintained arrangement of the
//! bindings that flowed through in earlier transactions. Antijoins and
//! aggregations are handled by recomputing only the *affected keys*. The
//! result is work proportional to the size of the change — the paper's
//! central scalability argument (§2.1–§2.2).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::cexpr::{eval, eval_aggregate, Binding};
use crate::error::{Error, Phase, Result};
use crate::plan::{CompiledRule, KeySrc, PStage};
use crate::profile::{OpId, WorkProfile};
use crate::store::{Key, RelId, RelationStore};
use crate::value::{Row, Value};
use crate::zset::ZSet;

/// Approx-bytes cost of one arrangement/group key.
fn key_cost(k: &Key) -> usize {
    k.len() * std::mem::size_of::<Value>() + 32
}

/// Approx-bytes cost of one arranged binding.
fn binding_cost(b: &Binding) -> usize {
    std::mem::size_of::<Binding>() + 24 + b.len() * std::mem::size_of::<Value>()
}

/// Add `(b, w)` to the z-set stored under `key` in `map`, keeping the
/// incremental byte count in sync (key/binding creation and removal).
fn arrange_add(
    map: &mut HashMap<Key, ZSet<Binding>>,
    bytes: &mut usize,
    key: Key,
    b: &Binding,
    w: isize,
) {
    let kc = key_cost(&key);
    let bc = binding_cost(b);
    match map.entry(key) {
        Entry::Occupied(mut o) => {
            let z = o.get_mut();
            let had = z.weight(b) != 0;
            z.add(b.clone(), w);
            let has = z.weight(b) != 0;
            if !had && has {
                *bytes += bc;
            } else if had && !has {
                *bytes = bytes.saturating_sub(bc);
            }
            if z.is_empty() {
                o.remove();
                *bytes = bytes.saturating_sub(kc);
            }
        }
        Entry::Vacant(v) => {
            if w != 0 {
                v.insert(ZSet::singleton(b.clone(), w));
                *bytes += kc + bc;
            }
        }
    }
}

/// Mutable per-stage state for one rule.
#[derive(Debug, Default, Clone)]
pub enum StageState {
    /// Stage needs no state (stage 0, filters, assigns, flatmaps).
    #[default]
    None,
    /// Arrangement of the stage's input bindings, keyed by join key.
    Arrangement(HashMap<Key, ZSet<Binding>>),
    /// Aggregation groups, keyed by group key.
    Groups(HashMap<Key, ZSet<Binding>>),
}

/// Per-rule evaluation state (arrangements).
#[derive(Debug, Clone)]
pub struct RuleState {
    states: Vec<StageState>,
    /// Incrementally maintained approximate resident bytes; always equal
    /// to what [`RuleState::approx_bytes_recompute`] would return.
    bytes: usize,
}

impl RuleState {
    /// Initialize state for a rule plan.
    pub fn new(rule: &CompiledRule) -> RuleState {
        let states = rule
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| match s {
                PStage::Atom { .. } if i > 0 => StageState::Arrangement(HashMap::new()),
                PStage::Aggregate { .. } => StageState::Groups(HashMap::new()),
                _ => StageState::None,
            })
            .collect();
        RuleState { states, bytes: 0 }
    }

    /// Approximate resident bytes of all arrangements (for the memory
    /// experiments). O(1): maintained incrementally as bindings flow in.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// The live aggregation groups of stage `i`, when that stage is an
    /// aggregate. The provenance layer reads these to reconstruct the
    /// contributing bindings of an aggregated tuple on demand.
    pub(crate) fn stage_groups(&self, i: usize) -> Option<&HashMap<Key, ZSet<Binding>>> {
        match self.states.get(i) {
            Some(StageState::Groups(m)) => Some(m),
            _ => None,
        }
    }

    /// Recompute [`RuleState::approx_bytes`] by walking every
    /// arrangement. Test/debug aid for validating the incremental count.
    pub fn approx_bytes_recompute(&self) -> usize {
        let mut total = 0;
        for st in &self.states {
            let map = match st {
                StageState::Arrangement(m) | StageState::Groups(m) => m,
                StageState::None => continue,
            };
            for (k, z) in map {
                total += key_cost(k);
                for (b, _) in z.iter() {
                    total += binding_cost(b);
                }
            }
        }
        total
    }
}

/// Build the lookup key for a binding according to `key_srcs`.
fn key_from_binding(key_srcs: &[KeySrc], b: &[Value]) -> Key {
    key_srcs
        .iter()
        .map(|s| match s {
            KeySrc::Const(v) => v.clone(),
            KeySrc::Slot(i) => b[*i].clone(),
        })
        .collect()
}

/// Check a row against the constant components of the key and intra-atom
/// equalities; used when driving from the relation-delta side.
fn row_admissible(
    key_cols: &[usize],
    key_srcs: &[KeySrc],
    checks: &[(usize, usize)],
    row: &Row,
) -> bool {
    for (col, src) in key_cols.iter().zip(key_srcs) {
        if let KeySrc::Const(v) = src {
            if &row[*col] != v {
                return false;
            }
        }
    }
    checks.iter().all(|(a, b)| row[*a] == row[*b])
}

/// Extend a binding with the columns an atom binds. Returns `None` when an
/// intra-atom check fails.
fn extend(
    b: &[Value],
    checks: &[(usize, usize)],
    binds: &[(usize, usize)],
    row: &Row,
) -> Option<Binding> {
    if !checks.iter().all(|(a, c)| row[*a] == row[*c]) {
        return None;
    }
    let mut out = Vec::with_capacity(b.len() + binds.len());
    out.extend_from_slice(b);
    for (col, slot) in binds {
        debug_assert_eq!(*slot, out.len());
        out.push(row[*col].clone());
    }
    Some(Arc::new(out))
}

/// Profiling context for one rule: the rule's operator ids (parallel to
/// its stages), the per-stage binding-arrangement operator ids (also
/// parallel; `Some` for join/antijoin stages), and the transaction's
/// [`WorkProfile`] to record into.
pub type RuleProf<'a> = (&'a [OpId], &'a [Option<OpId>], &'a mut WorkProfile);

/// Process one rule for a transaction.
///
/// * `rel_deltas` — set-level deltas of relations already updated this
///   transaction (lower strata and inputs).
/// * `prof` — when profiling, the rule's [`RuleProf`]. Arrangement
///   upkeep is recorded to its own operator and subtracted from the
///   stage wall so "index too big" and "probe too hot" are
///   distinguishable.
/// * Returns the delta of head-row derivations (weighted).
pub fn process_rule(
    rule: &CompiledRule,
    state: &mut RuleState,
    stores: &[RelationStore],
    rel_deltas: &HashMap<RelId, ZSet<Row>>,
    mut prof: Option<RuleProf<'_>>,
) -> Result<ZSet<Row>> {
    // Fast path: nothing this rule depends on changed.
    if !rule
        .body_rels
        .iter()
        .any(|r| rel_deltas.get(r).is_some_and(|d| !d.is_empty()))
    {
        return Ok(ZSet::new());
    }

    let RuleState { states, bytes } = state;
    let empty = ZSet::new();
    let mut cur: ZSet<Binding> = ZSet::new();

    for (i, stage) in rule.stages.iter().enumerate() {
        // Tuples entering this stage: the upstream binding delta plus,
        // for atoms, the relation-side delta.
        let tuples_in = cur.len()
            + match stage {
                PStage::Atom { rel, .. } => rel_deltas.get(rel).map(ZSet::len).unwrap_or(0),
                _ => 0,
            };
        let stage_start = prof.is_some().then(std::time::Instant::now);
        // (tuples, wall_ns) of this stage's binding-arrangement upkeep,
        // reported separately from the probe work.
        let mut arrange_work: Option<(u64, u64)> = None;
        match stage {
            PStage::Atom {
                rel,
                neg,
                key_cols,
                key_srcs,
                checks,
                binds,
            } if i == 0 => {
                debug_assert!(!neg);
                // Source stage: map relation delta to bindings.
                let delta_r = rel_deltas.get(rel).unwrap_or(&empty);
                let mut out = ZSet::new();
                for (row, w) in delta_r.iter() {
                    if !row_admissible(key_cols, key_srcs, checks, row) {
                        continue;
                    }
                    if let Some(nb) = extend(&[], &[], binds, row) {
                        out.add(nb, w);
                    }
                }
                cur = out;
            }
            PStage::Atom {
                rel,
                neg,
                key_cols,
                key_srcs,
                checks,
                binds,
            } => {
                let store = &stores[*rel];
                let delta_r = rel_deltas.get(rel).unwrap_or(&empty);
                let arr = match &mut states[i] {
                    StageState::Arrangement(m) => m,
                    _ => unreachable!("atom stage without arrangement"),
                };
                let mut out = ZSet::new();
                if *neg {
                    // δL side against R_new.
                    for (b, w) in cur.iter() {
                        let key = key_from_binding(key_srcs, b);
                        if store.lookup_count(key_cols, &key) == 0 {
                            out.add(b.clone(), w);
                        }
                    }
                    // Affected keys from δR: absence flips retract/insert
                    // the old bindings.
                    let mut affected: HashMap<Key, isize> = HashMap::new();
                    for (row, w) in delta_r.iter() {
                        if !row_admissible(key_cols, key_srcs, checks, row) {
                            continue;
                        }
                        let key: Key = key_cols.iter().map(|c| row[*c].clone()).collect();
                        *affected.entry(key).or_insert(0) += w;
                    }
                    for (key, cd) in affected {
                        let cn = store.lookup_count(key_cols, &key) as isize;
                        let co = cn - cd;
                        let absent_old = co == 0;
                        let absent_new = cn == 0;
                        if absent_old == absent_new {
                            continue;
                        }
                        if let Some(group) = arr.get(&key) {
                            let sign = if absent_new { 1 } else { -1 };
                            for (b, w) in group.iter() {
                                out.add(b.clone(), sign * w);
                            }
                        }
                    }
                } else {
                    // δL ⋈ R_new.
                    for (b, w) in cur.iter() {
                        if key_cols.is_empty() {
                            for row in store.rows() {
                                if let Some(nb) = extend(b, checks, binds, row) {
                                    out.add(nb, w);
                                }
                            }
                        } else {
                            let key = key_from_binding(key_srcs, b);
                            for row in store.lookup(key_cols, &key) {
                                if let Some(nb) = extend(b, checks, binds, row) {
                                    out.add(nb, w);
                                }
                            }
                        }
                    }
                    // L_old ⋈ δR.
                    for (row, wr) in delta_r.iter() {
                        if !row_admissible(key_cols, key_srcs, checks, row) {
                            continue;
                        }
                        let key: Key = key_cols.iter().map(|c| row[*c].clone()).collect();
                        if let Some(group) = arr.get(&key) {
                            for (b, wl) in group.iter() {
                                if let Some(nb) = extend(b, &[], binds, row) {
                                    out.add(nb, wl * wr);
                                }
                            }
                        }
                    }
                }
                // Update the arrangement with δL.
                let t_arr = stage_start.map(|_| std::time::Instant::now());
                for (b, w) in cur.iter() {
                    let key = key_from_binding(key_srcs, b);
                    arrange_add(arr, bytes, key, b, w);
                }
                if let Some(t) = t_arr {
                    arrange_work = Some((cur.len() as u64, t.elapsed().as_nanos() as u64));
                }
                cur = out;
            }
            PStage::Filter { expr } => {
                let mut out = ZSet::new();
                for (b, w) in cur.iter() {
                    if eval(expr, b)? == Value::Bool(true) {
                        out.add(b.clone(), w);
                    }
                }
                cur = out;
            }
            PStage::Assign { slot, expr } => {
                let mut out = ZSet::new();
                for (b, w) in cur.iter() {
                    let v = eval(expr, b)?;
                    let mut nb = Vec::with_capacity(b.len() + 1);
                    nb.extend_from_slice(b);
                    debug_assert_eq!(*slot, nb.len());
                    nb.push(v);
                    out.add(Arc::new(nb), w);
                }
                cur = out;
            }
            PStage::FlatMap { slot, expr } => {
                let mut out = ZSet::new();
                for (b, w) in cur.iter() {
                    let coll = eval(expr, b)?;
                    for elem in flatten(&coll)? {
                        let mut nb = Vec::with_capacity(b.len() + 1);
                        nb.extend_from_slice(b);
                        debug_assert_eq!(*slot, nb.len());
                        nb.push(elem);
                        out.add(Arc::new(nb), w);
                    }
                }
                cur = out;
            }
            PStage::Aggregate {
                group_slots,
                func,
                arg,
            } => {
                let groups = match &mut states[i] {
                    StageState::Groups(m) => m,
                    _ => unreachable!("aggregate stage without groups"),
                };
                // Group δL by key.
                let mut affected: HashMap<Key, ZSet<Binding>> = HashMap::new();
                for (b, w) in cur.iter() {
                    let key: Key = group_slots.iter().map(|s| b[*s].clone()).collect();
                    affected.entry(key).or_default().add(b.clone(), w);
                }
                let mut out = ZSet::new();
                for (key, dg) in affected {
                    if !groups.contains_key(&key) {
                        *bytes += key_cost(&key);
                        groups.insert(key.clone(), ZSet::new());
                    }
                    let group = groups.get_mut(&key).expect("group just ensured");
                    let old_nonempty = group.support().next().is_some();
                    let agg_old = if old_nonempty {
                        Some(eval_aggregate(*func, arg.as_ref(), group)?)
                    } else {
                        None
                    };
                    for (b, w) in dg.iter() {
                        let had = group.weight(b) != 0;
                        group.add(b.clone(), w);
                        let has = group.weight(b) != 0;
                        if !had && has {
                            *bytes += binding_cost(b);
                        } else if had && !has {
                            *bytes = bytes.saturating_sub(binding_cost(b));
                        }
                    }
                    let new_nonempty = group.support().next().is_some();
                    let agg_new = if new_nonempty {
                        Some(eval_aggregate(*func, arg.as_ref(), group)?)
                    } else {
                        None
                    };
                    if group.is_empty() {
                        groups.remove(&key);
                        *bytes = bytes.saturating_sub(key_cost(&key));
                    }
                    if agg_old == agg_new {
                        continue;
                    }
                    if let Some(a) = agg_old {
                        let mut nb = key.clone();
                        nb.push(a);
                        out.add(Arc::new(nb), -1);
                    }
                    if let Some(a) = agg_new {
                        let mut nb = key.clone();
                        nb.push(a);
                        out.add(Arc::new(nb), 1);
                    }
                }
                cur = out;
            }
        }
        if let Some((ops, arr_ops, wp)) = prof.as_mut() {
            let mut wall = stage_start
                .map(|t| t.elapsed().as_nanos() as u64)
                .unwrap_or(0);
            if let Some((arr_tuples, arr_ns)) = arrange_work {
                if let Some(op) = arr_ops[i] {
                    wp.record(op, arr_tuples, 0, arr_tuples, arr_ns);
                }
                wall = wall.saturating_sub(arr_ns);
            }
            let tuples_out = cur.len() as u64;
            let peak = (tuples_in as u64).max(tuples_out);
            wp.record(ops[i], tuples_in as u64, tuples_out, peak, wall);
        }
        if cur.is_empty() && !more_deltas_ahead(rule, i, rel_deltas) {
            return Ok(ZSet::new());
        }
    }

    // Map final bindings through the head expressions.
    let mut head_delta = ZSet::new();
    for (b, w) in cur.iter() {
        let mut row = Vec::with_capacity(rule.head_exprs.len());
        for e in &rule.head_exprs {
            row.push(eval(e, b)?);
        }
        head_delta.add(Arc::new(row), w);
    }
    Ok(head_delta)
}

/// True if any stage after `i` has its own relation delta to process.
fn more_deltas_ahead(
    rule: &CompiledRule,
    i: usize,
    rel_deltas: &HashMap<RelId, ZSet<Row>>,
) -> bool {
    rule.stages[i + 1..].iter().any(|s| match s {
        PStage::Atom { rel, .. } => rel_deltas.get(rel).is_some_and(|d| !d.is_empty()),
        _ => false,
    })
}

/// Enumerate the elements of a collection value for FlatMap.
pub fn flatten(v: &Value) -> Result<Vec<Value>> {
    Ok(match v {
        Value::Vec(items) => items.as_ref().clone(),
        Value::Set(items) => items.iter().cloned().collect(),
        Value::Map(m) => m
            .iter()
            .map(|(k, v)| Value::tuple(vec![k.clone(), v.clone()]))
            .collect(),
        other => {
            return Err(Error::new(
                Phase::Eval,
                format!("internal: FlatMap over non-collection {other}"),
            ))
        }
    })
}
