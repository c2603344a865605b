//! Evaluation of recursive strata: semi-naive fixpoint for insertions and
//! delete–re-derive (DRed) for retractions.
//!
//! Recursive relations (graph reachability, routing tables — §2.2 of the
//! paper calls these out as the queries classical IVM cannot handle) are
//! maintained with set semantics. Insertions propagate by driving each
//! rule from the newly added rows until a fixpoint. Deletions use DRed:
//! over-delete everything derivable from the removed rows, then re-derive
//! the survivors that have alternative derivations.

use std::collections::{HashMap, HashSet};

use crate::cexpr::eval;
use crate::chain::flatten;
use crate::error::{Error, Phase, Result};
use crate::plan::{CompiledRule, HeadBind, KeySrc, PStage};
use crate::profile::FixpointProbe;
use crate::store::{Key, RelId, RelationStore};
use crate::value::{Row, Value};
use crate::zset::ZSet;

/// A read view over the stores, optionally adjusted backwards by the
/// transaction's set-level deltas (to reconstruct the pre-transaction
/// contents of relations that were already updated).
pub struct View<'a> {
    stores: &'a [RelationStore],
    /// When present: subtract these deltas, i.e. present the OLD contents.
    rewind: Option<&'a HashMap<RelId, ZSet<Row>>>,
    /// Rows this view has handed out — the fixpoint's probe/scan work,
    /// surfaced as Fixpoint tuples so the incrementality audit sees it.
    examined: std::cell::Cell<u64>,
}

impl<'a> View<'a> {
    /// A view of the current (new) contents.
    pub fn new(stores: &'a [RelationStore]) -> Self {
        View {
            stores,
            rewind: None,
            examined: std::cell::Cell::new(0),
        }
    }

    /// A view of the pre-transaction contents of the relations present in
    /// `deltas`; other relations read as-is.
    pub fn old(stores: &'a [RelationStore], deltas: &'a HashMap<RelId, ZSet<Row>>) -> Self {
        View {
            stores,
            rewind: Some(deltas),
            examined: std::cell::Cell::new(0),
        }
    }

    fn delta_of(&self, rel: RelId) -> Option<&'a ZSet<Row>> {
        self.rewind.and_then(|m| m.get(&rel))
    }

    /// Drain the count of rows handed out by lookups and scans.
    pub fn take_examined(&self) -> u64 {
        self.examined.replace(0)
    }

    /// Rows matching `key` under the registered `key_cols` index.
    pub fn lookup(&self, rel: RelId, key_cols: &[usize], key: &Key) -> Vec<Row> {
        let mut rows: Vec<Row> = match self.delta_of(rel) {
            None => self.stores[rel].lookup(key_cols, key).cloned().collect(),
            Some(d) => {
                // OLD = NEW − delta: drop rows added this txn, restore
                // rows removed this txn.
                let mut v: Vec<Row> = self.stores[rel]
                    .lookup(key_cols, key)
                    .filter(|r| d.weight(r) <= 0)
                    .cloned()
                    .collect();
                for (r, w) in d.iter() {
                    if w < 0 && key_cols.iter().zip(key).all(|(c, k)| &r[*c] == k) {
                        v.push(r.clone());
                    }
                }
                v
            }
        };
        rows.sort();
        self.examined.set(self.examined.get() + rows.len() as u64);
        rows
    }

    /// Count of rows matching `key`.
    pub fn count(&self, rel: RelId, key_cols: &[usize], key: &Key) -> usize {
        let n = match self.delta_of(rel) {
            None => self.stores[rel].lookup_count(key_cols, key),
            Some(_) => self.lookup(rel, key_cols, key).len(),
        };
        self.examined.set(self.examined.get() + 1);
        n
    }

    /// All visible rows of a relation.
    pub fn scan(&self, rel: RelId) -> Vec<Row> {
        let rows = match self.delta_of(rel) {
            None => self.stores[rel].rows().cloned().collect(),
            Some(d) => {
                let mut v: Vec<Row> = self.stores[rel]
                    .rows()
                    .filter(|r| d.weight(r) <= 0)
                    .cloned()
                    .collect();
                for (r, w) in d.iter() {
                    if w < 0 {
                        v.push(r.clone());
                    }
                }
                v
            }
        };
        self.examined.set(self.examined.get() + rows.len() as u64);
        rows
    }
}

/// A partially bound environment for driven evaluation.
struct Env {
    vals: Vec<Value>,
    bound: Vec<bool>,
}

impl Env {
    fn new(n: usize) -> Env {
        Env {
            vals: vec![Value::Bool(false); n],
            bound: vec![false; n],
        }
    }

    /// Bind a slot or, if already bound, check equality. Returns false on
    /// mismatch; on success returns true and records whether the slot was
    /// newly bound in `newly`.
    fn bind_or_check(&mut self, slot: usize, v: &Value, newly: &mut Vec<usize>) -> bool {
        if self.bound[slot] {
            self.vals[slot] == *v
        } else {
            self.vals[slot] = v.clone();
            self.bound[slot] = true;
            newly.push(slot);
            true
        }
    }

    fn unbind(&mut self, slots: &[usize]) {
        for s in slots {
            self.bound[*s] = false;
        }
    }
}

/// Pre-bind the environment from a row driving an atom stage. Returns
/// `None` (after unbinding) if the row is inconsistent with the stage.
fn prebind(stage: &PStage, row: &Row, env: &mut Env) -> Option<Vec<usize>> {
    let (key_cols, key_srcs, checks, binds) = match stage {
        PStage::Atom {
            key_cols,
            key_srcs,
            checks,
            binds,
            ..
        } => (key_cols, key_srcs, checks, binds),
        _ => unreachable!("driving a non-atom stage"),
    };
    let mut newly = Vec::new();
    let mut ok = checks.iter().all(|(a, b)| row[*a] == row[*b]);
    if ok {
        for (col, src) in key_cols.iter().zip(key_srcs) {
            match src {
                KeySrc::Const(v) => {
                    if &row[*col] != v {
                        ok = false;
                        break;
                    }
                }
                KeySrc::Slot(s) => {
                    if !env.bind_or_check(*s, &row[*col], &mut newly) {
                        ok = false;
                        break;
                    }
                }
            }
        }
    }
    if ok {
        for (col, slot) in binds {
            if !env.bind_or_check(*slot, &row[*col], &mut newly) {
                ok = false;
                break;
            }
        }
    }
    if ok {
        Some(newly)
    } else {
        env.unbind(&newly);
        None
    }
}

/// Evaluate a rule by driving a delta row through one atom occurrence (or
/// fully forward when `drive` is `None`), collecting derived head rows.
///
/// `init` pre-binds slots (used for backward re-derivation). Rules with
/// aggregates are rejected at compile time for recursive strata, so this
/// evaluator never sees one.
pub fn eval_rule_driven(
    rule: &CompiledRule,
    view: &View<'_>,
    drive: Option<(usize, &Row)>,
    init: &[(usize, Value)],
    out: &mut HashSet<Row>,
) -> Result<()> {
    debug_assert!(!rule.has_aggregate);
    let mut env = Env::new(rule.n_slots);
    let mut init_newly = Vec::new();
    for (slot, v) in init {
        if !env.bind_or_check(*slot, v, &mut init_newly) {
            return Ok(()); // conflicting init bindings (e.g. R(x,x) head)
        }
    }
    if let Some((idx, row)) = drive {
        if prebind(&rule.stages[idx], row, &mut env).is_none() {
            return Ok(());
        }
    }
    // Pick the context-specific pipeline: a re-planned order probes
    // maintained arrangements from the slots this context pre-binds
    // (see [`crate::plan::DrivePlans`]); without one, fall back to the
    // original order, skipping the driven stage.
    let (stages, skip): (&[PStage], Option<usize>) = match drive {
        Some((idx, _)) => match rule.drive_plans.from.get(idx).and_then(Option::as_ref) {
            Some(replanned) => (replanned, None),
            None => (&rule.stages, Some(idx)),
        },
        None if !init.is_empty() => match &rule.drive_plans.rederive {
            Some(replanned) => (replanned, None),
            None => (&rule.stages, None),
        },
        None => (&rule.stages, None),
    };
    walk(rule, stages, view, skip, 0, &mut env, out)
}

fn walk(
    rule: &CompiledRule,
    stages: &[PStage],
    view: &View<'_>,
    skip: Option<usize>,
    i: usize,
    env: &mut Env,
    out: &mut HashSet<Row>,
) -> Result<()> {
    if i == stages.len() {
        let vals = &env.vals;
        debug_assert!(env.bound.iter().all(|b| *b), "unbound slot at head");
        let mut row = Vec::with_capacity(rule.head_exprs.len());
        for e in &rule.head_exprs {
            row.push(eval(e, vals)?);
        }
        out.insert(std::sync::Arc::new(row));
        return Ok(());
    }
    if skip == Some(i) {
        return walk(rule, stages, view, skip, i + 1, env, out);
    }
    match &stages[i] {
        PStage::Atom {
            rel,
            neg,
            key_cols,
            key_srcs,
            checks,
            binds,
        } => {
            if *neg {
                let key: Key = key_srcs
                    .iter()
                    .map(|s| match s {
                        KeySrc::Const(v) => v.clone(),
                        KeySrc::Slot(slot) => env.vals[*slot].clone(),
                    })
                    .collect();
                let absent = if key_cols.is_empty() {
                    view.scan(*rel).is_empty()
                } else {
                    view.count(*rel, key_cols, &key) == 0
                };
                if absent {
                    walk(rule, stages, view, skip, i + 1, env, out)?;
                }
                return Ok(());
            }
            let rows = if key_cols.is_empty() {
                view.scan(*rel)
            } else {
                let key: Key = key_srcs
                    .iter()
                    .map(|s| match s {
                        KeySrc::Const(v) => v.clone(),
                        KeySrc::Slot(slot) => env.vals[*slot].clone(),
                    })
                    .collect();
                view.lookup(*rel, key_cols, &key)
            };
            for row in rows {
                if !checks.iter().all(|(a, b)| row[*a] == row[*b]) {
                    continue;
                }
                // When key_cols is empty the Const/Slot constraints were
                // never applied by the lookup; nothing to re-check since
                // empty key_cols means no constrained columns.
                let mut newly = Vec::new();
                let mut ok = true;
                for (col, slot) in binds {
                    if !env.bind_or_check(*slot, &row[*col], &mut newly) {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    walk(rule, stages, view, skip, i + 1, env, out)?;
                }
                env.unbind(&newly);
            }
            Ok(())
        }
        PStage::Filter { expr } => {
            if eval(expr, &env.vals)? == Value::Bool(true) {
                walk(rule, stages, view, skip, i + 1, env, out)?;
            }
            Ok(())
        }
        PStage::Assign { slot, expr } => {
            let v = eval(expr, &env.vals)?;
            let mut newly = Vec::new();
            if env.bind_or_check(*slot, &v, &mut newly) {
                walk(rule, stages, view, skip, i + 1, env, out)?;
            }
            env.unbind(&newly);
            Ok(())
        }
        PStage::FlatMap { slot, expr } => {
            let coll = eval(expr, &env.vals)?;
            for elem in flatten(&coll)? {
                let mut newly = Vec::new();
                if env.bind_or_check(*slot, &elem, &mut newly) {
                    walk(rule, stages, view, skip, i + 1, env, out)?;
                }
                env.unbind(&newly);
            }
            Ok(())
        }
        PStage::Aggregate { .. } => Err(Error::new(
            Phase::Eval,
            "internal: aggregate in recursive stratum".to_string(),
        )),
    }
}

/// Outcome of an explanatory enumeration over a rule pipeline
/// (provenance queries): the complete environments that satisfy it,
/// plus the deepest failing literal met while searching — `why` renders
/// the first, `why_not` the second.
pub(crate) struct Explain {
    /// Snapshots of `env.vals` for every valuation that passed all
    /// stages and the head check, one per derivation (up to the cap).
    pub envs: Vec<Vec<Value>>,
    /// The deepest dead-end: (stage index, human description of the
    /// first failing literal there). `None` when some valuation passed
    /// every stage or no stage was ever entered.
    pub fail: Option<(usize, String)>,
    /// Rows looked at by the probes.
    pub examined: usize,
    /// More valuations exist than the cap admitted.
    pub capped: bool,
    /// The row-examination budget ran out: the search is incomplete.
    pub truncated: bool,
}

/// The head a valuation must reproduce to count, with the relation
/// name for rendering a mismatch.
pub(crate) struct HeadCheck<'a> {
    pub relation: &'a str,
    pub exprs: &'a [crate::cexpr::CExpr],
    pub target: &'a [Value],
}

/// Search state threaded through [`explain_walk`].
struct ExplainCtx<'a> {
    stores: &'a [RelationStore],
    /// Relation id → (name, arity) for patterns and failure texts.
    describe: &'a dyn Fn(RelId) -> (String, usize),
    head: Option<HeadCheck<'a>>,
    budget: usize,
    env_cap: usize,
    out: Explain,
}

impl ExplainCtx<'_> {
    fn dead_end(&mut self, stage: usize, msg: String) {
        if self.out.fail.as_ref().is_none_or(|(s, _)| stage >= *s) {
            self.out.fail = Some((stage, msg));
        }
    }

    fn stopped(&self) -> bool {
        self.out.truncated || self.out.capped
    }
}

/// The column pattern of an atom under a complete environment:
/// constants and slot values become `Some`, wildcards stay `None`.
pub(crate) fn atom_pattern(stage: &PStage, arity: usize, env: &[Value]) -> Vec<Option<Value>> {
    let mut pattern = vec![None; arity];
    for (col, src) in crate::plan::atom_col_srcs(stage) {
        pattern[col] = Some(match src {
            crate::plan::ColSrc::Const(v) => v,
            crate::plan::ColSrc::Slot(s) => env[s].clone(),
        });
    }
    pattern
}

/// Render a row as `Rel(v, w)`.
pub(crate) fn fmt_row(relation: &str, row: &[Value]) -> String {
    let vals: Vec<String> = row.iter().map(Value::to_string).collect();
    format!("{}({})", relation, vals.join(", "))
}

/// Render a pattern as `Rel(v, _, w)`.
pub(crate) fn fmt_pattern(relation: &str, pattern: &[Option<Value>]) -> String {
    let cols: Vec<String> = pattern
        .iter()
        .map(|p| p.as_ref().map_or("_".to_string(), Value::to_string))
        .collect();
    format!("{}({})", relation, cols.join(", "))
}

/// Enumerate every valuation of `stages` consistent with `init` (and,
/// when given, reproducing `head`), recording the deepest failing
/// literal along the way. Atom probes key on every slot bound so far —
/// `init` included — through [`RelationStore::matching_rows`], not on
/// the pipeline's compile-time left-to-right keys, so a head-bound
/// search is O(matches) wherever an arrangement covers the bound
/// columns and a budgeted scan where none does. Aggregate stages are not
/// handled here — the caller splits the pipeline at the aggregate and
/// resolves the group against the chain evaluator's live state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn explain_stages<'a>(
    stages: &[PStage],
    n_slots: usize,
    stores: &'a [RelationStore],
    describe: &'a dyn Fn(RelId) -> (String, usize),
    init: &[(usize, Value)],
    head: Option<HeadCheck<'a>>,
    budget: usize,
    env_cap: usize,
) -> Result<Explain> {
    let mut ctx = ExplainCtx {
        stores,
        describe,
        head,
        budget,
        env_cap,
        out: Explain {
            envs: Vec::new(),
            fail: None,
            examined: 0,
            capped: false,
            truncated: false,
        },
    };
    let mut env = Env::new(n_slots);
    let mut newly = Vec::new();
    if init
        .iter()
        .all(|(slot, v)| env.bind_or_check(*slot, v, &mut newly))
    {
        explain_walk(stages, 0, &mut env, &mut ctx)?;
    } else {
        ctx.out.fail = Some((
            0,
            "the target row binds the same variable twice with different values".to_string(),
        ));
    }
    Ok(ctx.out)
}

fn explain_walk(
    stages: &[PStage],
    i: usize,
    env: &mut Env,
    ctx: &mut ExplainCtx<'_>,
) -> Result<()> {
    if ctx.stopped() {
        return Ok(());
    }
    if i == stages.len() {
        if let Some(head) = &ctx.head {
            let mut row = Vec::with_capacity(head.exprs.len());
            for e in head.exprs {
                row.push(eval(e, &env.vals)?);
            }
            if row != head.target {
                let msg = format!(
                    "the rule fires but its head yields {}, not the target",
                    fmt_row(head.relation, &row)
                );
                ctx.dead_end(i, msg);
                return Ok(());
            }
        }
        if ctx.out.envs.len() >= ctx.env_cap {
            ctx.out.capped = true;
        } else {
            ctx.out.envs.push(env.vals.clone());
        }
        return Ok(());
    }
    match &stages[i] {
        PStage::Atom { rel, neg, .. } => {
            let (name, arity) = (ctx.describe)(*rel);
            // Key on every column whose value is known — constants and
            // the slots bound so far; the atom's other slots bind from
            // each matching row (a variable repeated within the atom
            // binds at its first column and checks at the others).
            let mut pattern = vec![None; arity];
            let mut free = Vec::new();
            for (col, src) in crate::plan::atom_col_srcs(&stages[i]) {
                match src {
                    crate::plan::ColSrc::Const(v) => pattern[col] = Some(v),
                    crate::plan::ColSrc::Slot(s) if env.bound[s] => {
                        pattern[col] = Some(env.vals[s].clone())
                    }
                    crate::plan::ColSrc::Slot(s) => free.push((col, s)),
                }
            }
            let cap = if *neg { 1 } else { usize::MAX };
            let m = ctx.stores[*rel].matching_rows(&pattern, cap, ctx.budget);
            // An empty probe still costs one unit, so the budget bounds
            // the number of probes as well as the rows they return.
            ctx.budget = ctx.budget.saturating_sub(m.examined.max(1));
            ctx.out.examined += m.examined;
            if m.exhausted {
                ctx.out.truncated = true;
                return Ok(());
            }
            if *neg {
                match m.rows.first() {
                    None => explain_walk(stages, i + 1, env, ctx)?,
                    Some(w) => ctx.dead_end(
                        i,
                        format!(
                            "negation violated: {} is present, but the rule requires `not {}`",
                            fmt_row(&name, w),
                            fmt_pattern(&name, &pattern)
                        ),
                    ),
                }
                return Ok(());
            }
            let mut advanced = false;
            for row in &m.rows {
                let mut newly = Vec::new();
                if free
                    .iter()
                    .all(|(col, s)| env.bind_or_check(*s, &row[*col], &mut newly))
                {
                    advanced = true;
                    explain_walk(stages, i + 1, env, ctx)?;
                }
                env.unbind(&newly);
                if ctx.stopped() {
                    return Ok(());
                }
            }
            if !advanced {
                ctx.dead_end(
                    i,
                    format!("no row matches {}", fmt_pattern(&name, &pattern)),
                );
            }
            Ok(())
        }
        PStage::Filter { expr } => {
            if eval(expr, &env.vals)? == Value::Bool(true) {
                explain_walk(stages, i + 1, env, ctx)
            } else {
                ctx.dead_end(i, "filter condition evaluates to false".to_string());
                Ok(())
            }
        }
        PStage::Assign { slot, expr } => {
            let v = eval(expr, &env.vals)?;
            let mut newly = Vec::new();
            if env.bind_or_check(*slot, &v, &mut newly) {
                explain_walk(stages, i + 1, env, ctx)?;
            } else {
                ctx.dead_end(
                    i,
                    format!(
                        "assignment computes {v} but the target row requires {}",
                        env.vals[*slot]
                    ),
                );
            }
            env.unbind(&newly);
            Ok(())
        }
        PStage::FlatMap { slot, expr } => {
            let coll = eval(expr, &env.vals)?;
            let elems = flatten(&coll)?;
            if elems.is_empty() {
                ctx.dead_end(i, "FlatMap collection is empty".to_string());
                return Ok(());
            }
            let mut advanced = false;
            for elem in elems {
                let mut newly = Vec::new();
                if env.bind_or_check(*slot, &elem, &mut newly) {
                    advanced = true;
                    explain_walk(stages, i + 1, env, ctx)?;
                }
                env.unbind(&newly);
                if ctx.stopped() {
                    return Ok(());
                }
            }
            if !advanced {
                ctx.dead_end(
                    i,
                    format!(
                        "no FlatMap element equals the required value {}",
                        env.vals[*slot]
                    ),
                );
            }
            Ok(())
        }
        PStage::Aggregate { .. } => Err(Error::new(
            Phase::Eval,
            "internal: explain_stages over an aggregate stage".to_string(),
        )),
    }
}

/// Process a recursive stratum for one transaction.
///
/// `scc_rels` — the relations of this stratum; `rules` — the compiled
/// rules headed in it; `rel_deltas` — set-level deltas of all relations
/// already updated this transaction (lower strata and inputs).
///
/// Returns the net set-level delta per SCC relation, already applied to
/// the stores. When `probe` is given, frontier pops and peak frontier
/// length are recorded into it (the fixpoint's work accounting).
pub fn process_recursive_stratum(
    rules: &[&CompiledRule],
    scc_rels: &HashSet<RelId>,
    stores: &mut [RelationStore],
    rel_deltas: &HashMap<RelId, ZSet<Row>>,
    mut probe: Option<&mut FixpointProbe>,
) -> Result<HashMap<RelId, ZSet<Row>>> {
    let mut net: HashMap<RelId, ZSet<Row>> = HashMap::new();

    // ---- Phase 1: over-delete (DRed) with the OLD view -----------------
    // Seeds: lower-relation deletions at positive atoms; lower-relation
    // insertions at negated atoms (a new row can kill derivations).
    let mut over_deleted: HashMap<RelId, HashSet<Row>> = HashMap::new();
    let mut frontier: Vec<(RelId, Row)> = Vec::new();
    {
        let old_view = View::old(stores, rel_deltas);
        let mut candidates: HashSet<(RelId, Row)> = HashSet::new();
        for rule in rules {
            for (idx, stage) in rule.stages.iter().enumerate() {
                let (rel, neg) = match stage {
                    PStage::Atom { rel, neg, .. } => (*rel, *neg),
                    _ => continue,
                };
                if scc_rels.contains(&rel) {
                    continue; // SCC deletions propagate via the frontier
                }
                let Some(delta) = rel_deltas.get(&rel) else {
                    continue;
                };
                let mut heads = HashSet::new();
                for (row, w) in delta.iter() {
                    let kills = if neg { w > 0 } else { w < 0 };
                    if kills {
                        eval_rule_driven(rule, &old_view, Some((idx, row)), &[], &mut heads)?;
                    }
                }
                for h in heads {
                    candidates.insert((rule.head_rel, h));
                }
            }
        }
        for (rel, row) in candidates {
            if stores[rel].contains(&row)
                && over_deleted.entry(rel).or_default().insert(row.clone())
            {
                frontier.push((rel, row));
            }
        }
        // Iterate: deletions of SCC rows propagate through SCC atoms.
        while let Some((drel, drow)) = frontier.pop() {
            if let Some(p) = probe.as_deref_mut() {
                p.observe_frontier(frontier.len() + 1);
                p.pop();
            }
            for rule in rules {
                for (idx, stage) in rule.stages.iter().enumerate() {
                    match stage {
                        PStage::Atom {
                            rel, neg: false, ..
                        } if *rel == drel => {}
                        _ => continue,
                    }
                    let mut heads = HashSet::new();
                    eval_rule_driven(rule, &old_view, Some((idx, &drow)), &[], &mut heads)?;
                    for h in heads {
                        let hrel = rule.head_rel;
                        if stores[hrel].contains(&h)
                            && !over_deleted.get(&hrel).is_some_and(|s| s.contains(&h))
                        {
                            over_deleted.entry(hrel).or_default().insert(h.clone());
                            frontier.push((hrel, h));
                        }
                    }
                }
            }
        }
        if let Some(p) = probe.as_deref_mut() {
            p.examine(old_view.take_examined());
        }
    }

    // ---- Phase 2: apply over-deletions ---------------------------------
    for (rel, rows) in &over_deleted {
        let mut d = ZSet::new();
        for r in rows {
            d.add(r.clone(), -1);
        }
        let sd = stores[*rel].apply_derivation_delta(&d);
        net.entry(*rel).or_default().merge(sd);
    }

    // ---- Phase 3: re-derive --------------------------------------------
    // A deleted row survives if some rule still derives it from the
    // remaining contents.
    let mut pending: Vec<(RelId, Row)> = Vec::new();
    {
        let new_view = View::new(stores);
        // Forward fallback caches for rules with complex heads.
        let mut forward_cache: HashMap<usize, HashSet<Row>> = HashMap::new();
        for (rel, rows) in &over_deleted {
            for row in rows {
                let mut rederived = false;
                for rule in rules {
                    if rule.head_rel != *rel {
                        continue;
                    }
                    match &rule.head_binds {
                        Some(binds) => {
                            let mut init = Vec::new();
                            let mut feasible = true;
                            for (hb, v) in binds.iter().zip(row.iter()) {
                                match hb {
                                    HeadBind::Slot(s) => init.push((*s, v.clone())),
                                    HeadBind::Const(c) => {
                                        if c != v {
                                            feasible = false;
                                            break;
                                        }
                                    }
                                }
                            }
                            if !feasible {
                                continue;
                            }
                            let mut heads = HashSet::new();
                            eval_rule_driven(rule, &new_view, None, &init, &mut heads)?;
                            if heads.contains(row) {
                                rederived = true;
                                break;
                            }
                        }
                        None => {
                            let heads = match forward_cache.get(&rule.rule_index) {
                                Some(h) => h,
                                None => {
                                    let mut h = HashSet::new();
                                    eval_rule_driven(rule, &new_view, None, &[], &mut h)?;
                                    forward_cache.insert(rule.rule_index, h);
                                    &forward_cache[&rule.rule_index]
                                }
                            };
                            if heads.contains(row) {
                                rederived = true;
                                break;
                            }
                        }
                    }
                }
                if rederived {
                    pending.push((*rel, row.clone()));
                }
            }
        }
        if let Some(p) = probe.as_deref_mut() {
            p.examine(new_view.take_examined());
        }
    }
    // Reinstate re-derived rows.
    for (rel, row) in &pending {
        let sd = stores[*rel].apply_derivation_delta(&ZSet::singleton(row.clone(), 1));
        net.entry(*rel).or_default().merge(sd);
    }

    // ---- Phase 4: insertions (semi-naive) ------------------------------
    // Seeds: lower-relation insertions at positive atoms; lower-relation
    // deletions at negated atoms (absence can enable derivations). Plus
    // the re-derived rows from phase 3.
    {
        // Rows of SCC relations inserted from outside this stratum (only
        // constant facts do this) are already in the stores; they still
        // need to drive the fixpoint.
        for rel in scc_rels {
            if let Some(d) = rel_deltas.get(rel) {
                for (row, w) in d.iter() {
                    if w > 0 {
                        pending.push((*rel, row.clone()));
                    }
                }
            }
        }
        // Seed from external deltas.
        let mut seed_heads: HashSet<(RelId, Row)> = HashSet::new();
        {
            let new_view = View::new(stores);
            for rule in rules {
                for (idx, stage) in rule.stages.iter().enumerate() {
                    let (rel, neg) = match stage {
                        PStage::Atom { rel, neg, .. } => (*rel, *neg),
                        _ => continue,
                    };
                    if scc_rels.contains(&rel) {
                        continue;
                    }
                    let Some(delta) = rel_deltas.get(&rel) else {
                        continue;
                    };
                    let mut heads = HashSet::new();
                    for (row, w) in delta.iter() {
                        let enables = if neg { w < 0 } else { w > 0 };
                        if enables {
                            eval_rule_driven(rule, &new_view, Some((idx, row)), &[], &mut heads)?;
                        }
                    }
                    for h in heads {
                        seed_heads.insert((rule.head_rel, h));
                    }
                }
            }
            if let Some(p) = probe.as_deref_mut() {
                p.examine(new_view.take_examined());
            }
        }
        for (rel, row) in seed_heads {
            if !stores[rel].contains(&row) {
                let sd = stores[rel].apply_derivation_delta(&ZSet::singleton(row.clone(), 1));
                net.entry(rel).or_default().merge(sd);
                pending.push((rel, row));
            }
        }

        // Fixpoint.
        while let Some((drel, drow)) = pending.pop() {
            if let Some(p) = probe.as_deref_mut() {
                p.observe_frontier(pending.len() + 1);
                p.pop();
            }
            let mut derived: Vec<(RelId, Row)> = Vec::new();
            {
                let new_view = View::new(stores);
                for rule in rules {
                    for (idx, stage) in rule.stages.iter().enumerate() {
                        match stage {
                            PStage::Atom {
                                rel, neg: false, ..
                            } if *rel == drel => {}
                            _ => continue,
                        }
                        let mut heads = HashSet::new();
                        eval_rule_driven(rule, &new_view, Some((idx, &drow)), &[], &mut heads)?;
                        for h in heads {
                            derived.push((rule.head_rel, h));
                        }
                    }
                }
                if let Some(p) = probe.as_deref_mut() {
                    p.examine(new_view.take_examined());
                }
            }
            for (rel, row) in derived {
                if !stores[rel].contains(&row) {
                    let sd = stores[rel].apply_derivation_delta(&ZSet::singleton(row.clone(), 1));
                    net.entry(rel).or_default().merge(sd);
                    pending.push((rel, row));
                }
            }
        }
    }

    net.retain(|_, z| !z.is_empty());
    Ok(net)
}
