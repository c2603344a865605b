//! Tuple-at-a-time evaluation: the one walker over a rule's stages, and
//! the recursive strata it drives — semi-naive fixpoint for insertions
//! and delete–re-derive (DRed) for retractions.
//!
//! Recursive relations (graph reachability, routing tables — §2.2 of the
//! paper calls these out as the queries classical IVM cannot handle) are
//! maintained with set semantics. Insertions propagate by driving each
//! rule from the newly added rows until a fixpoint. Deletions use DRed:
//! over-delete everything derivable from the removed rows, then re-derive
//! the survivors that have alternative derivations.
//!
//! Every one of those evaluations, and every provenance question
//! ([`crate::provenance`]), is one `Walk` through one probe
//! ([`View::probe`]). They differ only in what they bind first (a driving
//! row, a head row) and what they collect (head rows, or environments
//! plus the deepest dead end).

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::cexpr::{eval, CExpr};
use crate::chain::flatten;
use crate::error::{Error, Phase, Result};
use crate::plan::{atom_cols, ColSrc, CompiledRule, PStage};
use crate::profile::FixpointProbe;
use crate::provenance::head_init;
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
    /// Rows this view's probes have handed out — the fixpoint's probe
    /// work, surfaced as Fixpoint tuples so the incrementality audit
    /// sees it.
    handed_out: Cell<u64>,
}

/// The outcome of one [`View::probe`].
#[derive(Debug, Default)]
pub struct Probe {
    /// The matching visible rows, sorted.
    pub rows: Vec<Row>,
    /// Rows looked at to find them (1 for a membership test).
    pub examined: usize,
    /// More rows matched than the caller's cap.
    pub capped: bool,
    /// The examination budget ran out before every candidate was seen.
    pub exhausted: bool,
}

impl<'a> View<'a> {
    /// A view of the current (new) contents.
    pub fn new(stores: &'a [RelationStore]) -> Self {
        View {
            stores,
            rewind: None,
            handed_out: Cell::new(0),
        }
    }

    /// A view of the pre-transaction contents of the relations present in
    /// `deltas`; other relations read as-is.
    pub fn old(stores: &'a [RelationStore], deltas: &'a HashMap<RelId, ZSet<Row>>) -> Self {
        View {
            stores,
            rewind: Some(deltas),
            handed_out: Cell::new(0),
        }
    }

    /// Drain the count of rows handed out by probes.
    pub fn take_examined(&self) -> u64 {
        self.handed_out.replace(0)
    }

    /// Visible rows of `rel` matching a column pattern (`Some(v)` = must
    /// equal `v`, `None` = wildcard): at most `cap` of them, looking at no
    /// more than `budget` rows (`usize::MAX` for no limit). A fully
    /// determined pattern is one membership test; otherwise the widest
    /// registered arrangement whose key columns the pattern all fixes is
    /// probed and the rest post-filtered, and only when none applies is
    /// the relation scanned — O(matches) wherever an arrangement covers
    /// the known columns. An old view rewinds the transaction's delta:
    /// rows it added are skipped, rows it removed are visible again.
    pub fn probe(&self, rel: RelId, pattern: &[Option<Value>], cap: usize, budget: usize) -> Probe {
        let store = &self.stores[rel];
        let delta = self.rewind.and_then(|m| m.get(&rel));
        let not_added = |r: &Row| delta.is_none_or(|d| d.weight(r) <= 0);
        let mut out = Probe::default();
        if pattern.iter().all(Option::is_some) {
            let vals: Vec<Value> = pattern.iter().flatten().cloned().collect();
            out.examined = 1;
            match delta {
                None => out.rows.extend(store.visible(&vals).cloned()),
                Some(d) => {
                    let row = Arc::new(vals);
                    let w = d.weight(&row);
                    if w < 0 || (w == 0 && store.contains(&row)) {
                        out.rows.push(row);
                    }
                }
            }
        } else {
            let arr = store.covering(pattern);
            let key: Option<Key> = arr.map(|a| {
                a.cols()
                    .iter()
                    .map(|c| pattern[*c].clone().unwrap())
                    .collect()
            });
            let keyed = arr.zip(key.as_ref()).and_then(|(a, k)| a.get(k));
            let scan = arr.is_none().then(|| store.rows());
            let candidates = keyed
                .into_iter()
                .flatten()
                .chain(scan.into_iter().flatten());
            let removed = delta.into_iter().flat_map(ZSet::iter);
            let removed = removed.filter(|(_, w)| *w < 0).map(|(r, _)| r);
            for r in candidates.filter(|r| not_added(r)).chain(removed) {
                if out.examined >= budget {
                    out.exhausted = true;
                    break;
                }
                out.examined += 1;
                if !pattern
                    .iter()
                    .zip(r.iter())
                    .all(|(p, v)| p.as_ref().is_none_or(|p| p == v))
                {
                    continue;
                }
                if out.rows.len() >= cap {
                    out.capped = true;
                    break;
                }
                out.rows.push(r.clone());
            }
            out.rows.sort();
        }
        self.handed_out
            .set(self.handed_out.get() + out.rows.len() as u64);
        out
    }
}

/// A partially bound environment.
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
    /// mismatch; a slot it newly binds is recorded in `newly`.
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

    fn unbind(&mut self, slots: &mut Vec<usize>) {
        for s in slots.drain(..) {
            self.bound[s] = false;
        }
    }
}

/// The column pattern of an atom under `vals`: literals and the slots
/// `known` admits become `Some`; wildcards and the other slots stay
/// `None`.
pub(crate) fn atom_pattern(
    stage: &PStage,
    arity: usize,
    vals: &[Value],
    known: impl Fn(usize) -> bool,
) -> Vec<Option<Value>> {
    let mut pattern = vec![None; arity];
    for (col, src) in atom_cols(stage) {
        match src {
            ColSrc::Const(v) => pattern[col] = Some(v.clone()),
            ColSrc::Slot(s) if known(s) => pattern[col] = Some(vals[s].clone()),
            ColSrc::Slot(_) => {}
        }
    }
    pattern
}

/// One more than the highest slot `stages` bind: the environment size a
/// walk over them needs.
fn slots_of(stages: &[PStage]) -> usize {
    let bound = stages.iter().flat_map(|s| match s {
        PStage::Atom { binds, .. } => binds.iter().map(|(_, sl)| *sl).collect(),
        PStage::Assign { slot, .. } | PStage::FlatMap { slot, .. } => vec![*slot],
        PStage::Filter { .. } | PStage::Aggregate { .. } => Vec::new(),
    });
    bound.max().map_or(0, |m| m + 1)
}

/// What a [`Walk`] keeps from each valuation that reaches its leaf.
pub(crate) enum Sink<'a> {
    /// The head row it evaluates to: the fixpoint and DRed.
    Heads(&'a mut HashSet<Row>),
    /// The environment itself, at most `cap` of them: provenance.
    Envs {
        /// Environments admitted so far.
        envs: Vec<Vec<Value>>,
        /// How many to admit; one more sets [`Walk::capped`].
        cap: usize,
    },
}

/// The literal that turned a walk away, as a value: relations are named
/// by id, and only [`crate::provenance`] renders it to text.
#[derive(Debug)]
pub(crate) enum DeadEnd {
    /// The pre-bound head row binds one variable to two values.
    Conflict,
    /// No row of `rel` matches `pattern`.
    NoMatch {
        /// The probed relation.
        rel: RelId,
        /// The known columns.
        pattern: Vec<Option<Value>>,
    },
    /// `row` matches the pattern of a negated atom.
    Present {
        /// The negated relation.
        rel: RelId,
        /// The row that violates the negation.
        row: Row,
        /// The negated pattern.
        pattern: Vec<Option<Value>>,
    },
    /// A filter evaluated to false.
    Filter,
    /// An assignment computed a value other than the one pre-bound.
    Assign {
        /// What the expression computed.
        computed: Value,
        /// What the slot already held.
        required: Value,
    },
    /// A FlatMap over an empty collection.
    EmptyFlatMap,
    /// No FlatMap element equals the pre-bound value.
    NoElement {
        /// What the slot already held.
        required: Value,
    },
    /// Every stage passed but the head is not the target row.
    Head {
        /// The head row the valuation yields.
        row: Vec<Value>,
    },
}

/// The one tuple-at-a-time evaluator of a rule's stages.
///
/// A walk visits the stages in a given order from a pre-bound
/// environment. At each atom it probes the [`View`] on every column
/// whose value is known so far — literals and bound slots, read off
/// [`atom_cols`] at run time — and binds the atom's other slots from each
/// matching row; filters, assignments and FlatMaps evaluate over the
/// environment. Each valuation that passes every stage (and, when a
/// target is set, reproduces it) goes to the [`Sink`]. A walk that keeps
/// environments also records the deepest [`DeadEnd`]; the fixpoint's
/// walks keep head rows, and pay nothing for dead ends.
pub(crate) struct Walk<'a> {
    stages: &'a [PStage],
    n_slots: usize,
    view: &'a View<'a>,
    head: &'a [CExpr],
    /// The row the head must reproduce at the leaf, if any.
    target: Option<&'a [Value]>,
    /// Rows the probes may still look at.
    budget: usize,
    /// What the leaves collect.
    pub sink: Sink<'a>,
    /// The deepest dead end: position in the walked order (the stage
    /// index for a walk in body order) and the failing literal.
    pub fail: Option<(usize, DeadEnd)>,
    /// Rows the probes looked at.
    pub examined: usize,
    /// More valuations exist than the sink's cap admitted.
    pub capped: bool,
    /// The row budget ran out: the walk is incomplete.
    pub truncated: bool,
}

impl<'a> Walk<'a> {
    fn new(
        stages: &'a [PStage],
        n_slots: usize,
        view: &'a View<'a>,
        head: &'a [CExpr],
        sink: Sink<'a>,
    ) -> Walk<'a> {
        Walk {
            stages,
            n_slots,
            view,
            head,
            target: None,
            budget: usize::MAX,
            sink,
            fail: None,
            examined: 0,
            capped: false,
            truncated: false,
        }
    }

    /// An unbounded walk of `rule` that adds every head row it derives to
    /// `out`: the fixpoint's and DRed's.
    pub(crate) fn heads(
        rule: &'a CompiledRule,
        view: &'a View<'a>,
        out: &'a mut HashSet<Row>,
    ) -> Walk<'a> {
        debug_assert!(!rule.has_aggregate);
        let sink = Sink::Heads(out);
        Walk::new(&rule.stages, rule.n_slots, view, &rule.head_exprs, sink)
    }

    /// A walk over `stages` that keeps up to `cap` environments whose
    /// `head` reproduces `target` (any environment without one), looks at
    /// no more than `budget` rows, and records the deepest dead end:
    /// provenance's.
    pub(crate) fn explain(
        stages: &'a [PStage],
        view: &'a View<'a>,
        head: &'a [CExpr],
        target: Option<&'a [Value]>,
        budget: usize,
        cap: usize,
    ) -> Walk<'a> {
        let sink = Sink::Envs {
            envs: Vec::new(),
            cap,
        };
        Walk {
            target,
            budget,
            ..Walk::new(stages, slots_of(stages), view, head, sink)
        }
    }

    /// Walk the stages in `order` from an environment pre-bound by `init`
    /// (slot values, e.g. a head row's) and, when given, by a row driving
    /// atom `drive.0` (which `order` then leaves out).
    pub(crate) fn run(
        &mut self,
        order: &[usize],
        init: &[(usize, Value)],
        drive: Option<(usize, &Row)>,
    ) -> Result<()> {
        let mut env = Env::new(self.n_slots);
        let mut newly = Vec::new();
        if !init
            .iter()
            .all(|(slot, v)| env.bind_or_check(*slot, v, &mut newly))
        {
            self.dead_end(0, || DeadEnd::Conflict);
            return Ok(());
        }
        if let Some((idx, row)) = drive {
            let consistent = atom_cols(&self.stages[idx]).all(|(col, src)| match src {
                ColSrc::Const(v) => row[col] == *v,
                ColSrc::Slot(s) => env.bind_or_check(s, &row[col], &mut newly),
            });
            if !consistent {
                return Ok(());
            }
        }
        self.step(order, 0, &mut env)
    }

    fn stopped(&self) -> bool {
        self.truncated || self.capped
    }

    fn dead_end(&mut self, depth: usize, what: impl FnOnce() -> DeadEnd) {
        let explains = matches!(self.sink, Sink::Envs { .. });
        if explains && self.fail.as_ref().is_none_or(|(d, _)| depth >= *d) {
            self.fail = Some((depth, what()));
        }
    }

    fn step(&mut self, order: &[usize], depth: usize, env: &mut Env) -> Result<()> {
        if self.stopped() {
            return Ok(());
        }
        let Some(&i) = order.get(depth) else {
            return self.leaf(depth, env);
        };
        let (stages, view) = (self.stages, self.view);
        let mut newly = Vec::new();
        match &stages[i] {
            PStage::Atom { rel, neg, .. } => {
                let arity = view.stores[*rel].arity();
                let pattern = atom_pattern(&stages[i], arity, &env.vals, |s| env.bound[s]);
                let cap = if *neg { 1 } else { usize::MAX };
                let p = view.probe(*rel, &pattern, cap, self.budget);
                // An empty probe still costs one unit, so the budget
                // bounds the number of probes as well as the rows they
                // return.
                self.budget = self.budget.saturating_sub(p.examined.max(1));
                self.examined += p.examined;
                if p.exhausted {
                    self.truncated = true;
                    return Ok(());
                }
                if *neg {
                    match p.rows.first() {
                        None => self.step(order, depth + 1, env)?,
                        Some(row) => self.dead_end(depth, || DeadEnd::Present {
                            rel: *rel,
                            row: row.clone(),
                            pattern,
                        }),
                    }
                    return Ok(());
                }
                // Bind the slots the pattern left open from each row (a
                // variable repeated within the atom binds at one column
                // and checks at the rest).
                let mut advanced = false;
                for row in &p.rows {
                    let fits = atom_cols(&stages[i]).all(|(col, src)| match src {
                        ColSrc::Slot(s) if pattern[col].is_none() => {
                            env.bind_or_check(s, &row[col], &mut newly)
                        }
                        _ => true,
                    });
                    if fits {
                        advanced = true;
                        self.step(order, depth + 1, env)?;
                    }
                    env.unbind(&mut newly);
                    if self.stopped() {
                        return Ok(());
                    }
                }
                if !advanced {
                    self.dead_end(depth, || DeadEnd::NoMatch { rel: *rel, pattern });
                }
            }
            PStage::Filter { expr } => {
                if eval(expr, &env.vals)? == Value::Bool(true) {
                    self.step(order, depth + 1, env)?;
                } else {
                    self.dead_end(depth, || DeadEnd::Filter);
                }
            }
            PStage::Assign { slot, expr } => {
                let v = eval(expr, &env.vals)?;
                if env.bind_or_check(*slot, &v, &mut newly) {
                    self.step(order, depth + 1, env)?;
                    env.unbind(&mut newly);
                } else {
                    self.dead_end(depth, || DeadEnd::Assign {
                        computed: v,
                        required: env.vals[*slot].clone(),
                    });
                }
            }
            PStage::FlatMap { slot, expr } => {
                let elems = flatten(&eval(expr, &env.vals)?)?;
                if elems.is_empty() {
                    self.dead_end(depth, || DeadEnd::EmptyFlatMap);
                    return Ok(());
                }
                let mut advanced = false;
                for elem in elems {
                    if env.bind_or_check(*slot, &elem, &mut newly) {
                        advanced = true;
                        self.step(order, depth + 1, env)?;
                    }
                    env.unbind(&mut newly);
                    if self.stopped() {
                        return Ok(());
                    }
                }
                if !advanced {
                    self.dead_end(depth, || DeadEnd::NoElement {
                        required: env.vals[*slot].clone(),
                    });
                }
            }
            PStage::Aggregate { .. } => {
                return Err(Error::new(
                    Phase::Eval,
                    "internal: aggregate stage in a tuple-at-a-time walk".to_string(),
                ))
            }
        }
        Ok(())
    }

    fn leaf(&mut self, depth: usize, env: &Env) -> Result<()> {
        debug_assert!(env.bound.iter().all(|b| *b), "unbound slot at the leaf");
        let head_row = |exprs: &[CExpr]| -> Result<Vec<Value>> {
            exprs.iter().map(|e| eval(e, &env.vals)).collect()
        };
        if let Some(target) = self.target {
            let row = head_row(self.head)?;
            if row != target {
                self.dead_end(depth, || DeadEnd::Head { row });
                return Ok(());
            }
        }
        match &mut self.sink {
            Sink::Heads(out) => {
                out.insert(Arc::new(head_row(self.head)?));
            }
            Sink::Envs { envs, cap } if envs.len() >= *cap => self.capped = true,
            Sink::Envs { envs, .. } => envs.push(env.vals.clone()),
        }
        Ok(())
    }
}

/// Drive `row` through atom `idx` of `rule` in its planned order, adding
/// the head rows it derives to `out`.
fn drive(
    rule: &CompiledRule,
    view: &View<'_>,
    idx: usize,
    row: &Row,
    out: &mut HashSet<Row>,
) -> Result<()> {
    Walk::heads(rule, view, out).run(&rule.drive_plans.from[idx], &[], Some((idx, row)))
}

/// Drive the lower-stratum rows whose weight has sign `sign` through the
/// positive atoms over their relation, and those of the opposite sign
/// through the negated ones: the head rows a lower delta can kill
/// (`sign` −1, over-delete) or enable (+1, insertion).
fn seed(
    rules: &[&CompiledRule],
    scc_rels: &HashSet<RelId>,
    rel_deltas: &HashMap<RelId, ZSet<Row>>,
    view: &View<'_>,
    sign: isize,
) -> Result<HashSet<(RelId, Row)>> {
    let mut out = HashSet::new();
    for rule in rules {
        for (idx, stage) in rule.stages.iter().enumerate() {
            let PStage::Atom { rel, neg, .. } = stage else {
                continue;
            };
            // Stratum relations propagate through the frontier instead.
            let Some(delta) = rel_deltas.get(rel).filter(|_| !scc_rels.contains(rel)) else {
                continue;
            };
            let want = if *neg { -sign } else { sign };
            let mut heads = HashSet::new();
            for (row, _) in delta.iter().filter(|(_, w)| w.signum() == want) {
                drive(rule, view, idx, row, &mut heads)?;
            }
            out.extend(heads.into_iter().map(|h| (rule.head_rel, h)));
        }
    }
    Ok(out)
}

/// Drive a changed row of stratum relation `rel` through every positive
/// atom over it: the head rows it derives, per rule.
fn frontier_step(
    rules: &[&CompiledRule],
    view: &View<'_>,
    rel: RelId,
    row: &Row,
) -> Result<Vec<(RelId, Row)>> {
    let mut out = Vec::new();
    for rule in rules {
        for (idx, stage) in rule.stages.iter().enumerate() {
            if matches!(stage, PStage::Atom { rel: r, neg: false, .. } if *r == rel) {
                let mut heads = HashSet::new();
                drive(rule, view, idx, row, &mut heads)?;
                out.extend(heads.into_iter().map(|h| (rule.head_rel, h)));
            }
        }
    }
    Ok(out)
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
        for (rel, row) in seed(rules, scc_rels, rel_deltas, &old_view, -1)? {
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
            for (hrel, h) in frontier_step(rules, &old_view, drel, &drow)? {
                if stores[hrel].contains(&h)
                    && over_deleted.entry(hrel).or_default().insert(h.clone())
                {
                    frontier.push((hrel, h));
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
    // remaining contents: bind the head backwards (plain variables pin
    // slots, constants must match, computed arguments are checked by
    // comparing the derived heads) and walk the re-derive order.
    let mut pending: Vec<(RelId, Row)> = Vec::new();
    {
        let new_view = View::new(stores);
        // A head that binds no slot enumerates its rule forward, once
        // per commit.
        let mut forward: HashMap<usize, HashSet<Row>> = HashMap::new();
        for (rel, rows) in &over_deleted {
            for row in rows {
                let mut rederived = false;
                for rule in rules.iter().filter(|r| r.head_rel == *rel) {
                    let Ok((init, _)) = head_init(rule, row, None) else {
                        continue; // a head constant rules the row out
                    };
                    let order = &rule.drive_plans.rederive;
                    let derives = if init.is_empty() {
                        let heads = match forward.entry(rule.rule_index) {
                            Entry::Occupied(o) => o.into_mut(),
                            Entry::Vacant(v) => {
                                let mut heads = HashSet::new();
                                Walk::heads(rule, &new_view, &mut heads).run(order, &[], None)?;
                                v.insert(heads)
                            }
                        };
                        heads.contains(row)
                    } else {
                        let mut heads = HashSet::new();
                        Walk::heads(rule, &new_view, &mut heads).run(order, &init, None)?;
                        heads.contains(row)
                    };
                    if derives {
                        rederived = true;
                        break;
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
        let seed_heads = {
            let new_view = View::new(stores);
            let heads = seed(rules, scc_rels, rel_deltas, &new_view, 1)?;
            if let Some(p) = probe.as_deref_mut() {
                p.examine(new_view.take_examined());
            }
            heads
        };
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
            let derived = {
                let new_view = View::new(stores);
                let derived = frontier_step(rules, &new_view, drel, &drow)?;
                if let Some(p) = probe.as_deref_mut() {
                    p.examine(new_view.take_examined());
                }
                derived
            };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::row;

    fn r(vals: &[i128]) -> Row {
        row(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    fn store(rows: impl IntoIterator<Item = Row>) -> RelationStore {
        let mut s = RelationStore::new("R", 3);
        s.register_arrangement(&[0], None);
        s.apply_derivation_delta(&rows.into_iter().map(|r| (r, 1)).collect());
        s
    }

    #[test]
    fn probe_uses_the_widest_covering_arrangement_else_scans() {
        let stores = [store((0..10).map(|i| r(&[i % 2, i, i * i])))];
        let view = View::new(&stores);
        let int = |v| Some(Value::Int(v));
        // Fully determined: one membership test.
        let p = view.probe(0, &[int(1), int(3), int(9)], 8, 100);
        assert_eq!((p.rows.len(), p.examined), (1, 1));
        // Column 0 is arranged: only its 5 matches are looked at.
        let p = view.probe(0, &[int(1), None, int(9)], 8, 100);
        assert_eq!((p.rows, p.examined), (vec![r(&[1, 3, 9])], 5));
        // Column 1 is not: a scan, which a small budget cuts short.
        let p = view.probe(0, &[None, int(3), None], 8, 100);
        assert_eq!((p.rows.len(), p.examined, p.exhausted), (1, 10, false));
        // The rows handed out so far: one per probe.
        assert_eq!(view.take_examined(), 3);
        assert!(view.probe(0, &[None, int(3), None], 8, 4).exhausted);
        let p = view.probe(0, &[int(0), None, None], 2, 100);
        assert!(p.capped && p.rows.len() == 2);
    }

    #[test]
    fn old_view_probe_rewinds_the_transaction() {
        let mut stores = [store([r(&[1, 1, 1]), r(&[1, 2, 4])])];
        let delta = [r(&[1, 3, 9]), r(&[1, 2, 4])]
            .into_iter()
            .zip([1, -1])
            .collect::<ZSet<Row>>();
        stores[0].apply_derivation_delta(&delta);
        let deltas = HashMap::from([(0, delta)]);
        let old = View::old(&stores, &deltas);
        let int = |v| Some(Value::Int(v));
        // Keyed: the added row is skipped, the removed one is back.
        let p = old.probe(0, &[int(1), None, None], usize::MAX, usize::MAX);
        assert_eq!(p.rows, vec![r(&[1, 1, 1]), r(&[1, 2, 4])]);
        // Membership, both ways.
        assert_eq!(old.probe(0, &[int(1), int(2), int(4)], 1, 1).rows.len(), 1);
        assert!(old
            .probe(0, &[int(1), int(3), int(9)], 1, 1)
            .rows
            .is_empty());
        // The new view sees the opposite.
        let new = View::new(&stores);
        let p = new.probe(0, &[int(1), None, None], usize::MAX, usize::MAX);
        assert_eq!(p.rows, vec![r(&[1, 1, 1]), r(&[1, 3, 9])]);
    }
}
