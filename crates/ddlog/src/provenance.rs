//! Per-tuple provenance, derived on demand: the search behind
//! [`crate::engine::Engine::why`] and [`crate::engine::Engine::why_not`].
//!
//! Nothing is recorded while the engine evaluates. A question about a
//! `(relation, row)` is answered by one search over the state the
//! evaluators already keep: for each rule headed at the relation, bind
//! the head backwards onto the rule's variables, walk the body with the
//! engine's one tuple-at-a-time walker (`recursive::Walk`, probing the
//! shared arrangements on every variable bound so far), and resolve
//! aggregate groups against the chain evaluator's live group state. Per
//! rule the search yields either the environments under which the rule
//! derives the row or the deepest literal that blocks it — `why` renders
//! the first side as a derivation tree rooted in base facts, `why_not`
//! the second. Supporting input rows are re-found by projecting an
//! environment back through each atom's columns, so an answer can never
//! cite a retracted fact: it is computed from what is visible now.
//!
//! The only per-row state is the `(trace, commit)` last-touch stamp the
//! store keeps inside each row entry ([`crate::store::RelationStore`]).
//!
//! Every search is bounded: it examines at most [`SEARCH_BUDGET`] rows
//! per rule. A search that runs out reports *truncated* — never "no
//! derivation".

use std::cell::Cell;
use std::collections::HashSet;

use crate::ast::{RelationDecl, RelationRole};
use crate::cexpr::{eval, eval_aggregate, eval_cast, CExpr};
use crate::chain::RuleState;
use crate::error::{Error, Phase, Result};
use crate::plan::{CompiledProgram, CompiledRule, PStage};
use crate::recursive::{atom_pattern, DeadEnd, Sink, View, Walk};
use crate::store::{RelId, RelationStore};
use crate::types::Type;
use crate::value::{Row, Value};

// ---------------------------------------------------------------------------
// Query results

/// One node of a derivation tree: a fact and how it is justified.
#[derive(Debug, Clone)]
pub struct WhyNode {
    /// Relation name.
    pub relation: String,
    /// The row.
    pub row: Vec<Value>,
    /// True when this is a base fact: an `input` relation row mirrored
    /// from outside (OVSDB in the full stack).
    pub base: bool,
    /// `(trace, commit)` of the flight-recorder trace that last
    /// inserted this row, when stamped.
    pub touch: Option<(u64, u64)>,
    /// The justifications (at least one for a visible derived row).
    pub justs: Vec<WhyJust>,
    /// True when this row already appears higher up the tree (cycle in
    /// a recursive stratum); its justifications are not repeated.
    pub repeated: bool,
    /// Truncation or limit notes, if any.
    pub note: Option<String>,
    /// Rows the search looked at to explain this node and everything
    /// below it (the root's value is the cost of the whole query).
    pub examined: usize,
    /// True when a search at or below this node ran out of
    /// [`SEARCH_BUDGET`]: the tree may be missing derivations that
    /// exist.
    pub truncated: bool,
}

/// One justification of a node: a rule application (or declared fact)
/// and its supporting literals.
#[derive(Debug, Clone)]
pub struct WhyJust {
    /// Source rule index, or `None` for a declared fact.
    pub rule_index: Option<usize>,
    /// Human-readable rule rendering.
    pub rule: String,
    /// The supporting literals, in body order.
    pub supports: Vec<WhySupport>,
    /// Truncation notes (support or contributor caps), if any.
    pub note: Option<String>,
}

/// One supporting literal of a justification.
#[derive(Debug, Clone)]
pub enum WhySupport {
    /// A positive atom's supporting fact, recursively explained.
    Fact(WhyNode),
    /// A satisfied negation: no row matches `pattern` in `relation`.
    Absent {
        /// The negated relation.
        relation: String,
        /// The pattern no row matches, e.g. `Blocked(3, _)`.
        pattern: String,
    },
}

/// The report of [`crate::engine::Engine::why_not`]: per candidate
/// rule, the first failing literal that blocks a derivation.
#[derive(Debug, Clone)]
pub struct WhyNot {
    /// Relation name.
    pub relation: String,
    /// The absent row.
    pub row: Vec<Value>,
    /// True when the row is actually present (use `why` instead).
    pub present: bool,
    /// True when the relation is an input: nothing derives it, the row
    /// simply was never inserted.
    pub input: bool,
    /// One report per candidate rule with this head relation.
    pub candidates: Vec<CandidateReport>,
    /// Rows the search looked at.
    pub examined: usize,
    /// True when a candidate's search ran out of [`SEARCH_BUDGET`]: its
    /// report says so instead of naming a failing literal.
    pub truncated: bool,
}

/// Why one candidate rule fails to derive the target row.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// Source rule index.
    pub rule_index: usize,
    /// Human-readable rule rendering.
    pub rule: String,
    /// Pipeline stage of the first failing literal (`None` when the
    /// head itself is incompatible).
    pub stage: Option<usize>,
    /// Description of the first failing literal.
    pub failure: String,
}

// ---------------------------------------------------------------------------
// Rendering

/// Render a row as `Rel(v, w)`.
fn fmt_row(relation: &str, row: &[Value]) -> String {
    let vals: Vec<String> = row.iter().map(Value::to_string).collect();
    format!("{}({})", relation, vals.join(", "))
}

/// Render a pattern as `Rel(v, _, w)`.
fn fmt_pattern(relation: &str, pattern: &[Option<Value>]) -> String {
    let cols: Vec<String> = pattern
        .iter()
        .map(|p| p.as_ref().map_or("_".to_string(), Value::to_string))
        .collect();
    format!("{}({})", relation, cols.join(", "))
}

/// Render a walk's dead end in a rule headed at `head`.
fn fmt_dead_end(decls: &[RelationDecl], head: RelId, dead_end: DeadEnd) -> String {
    let name = |rel: RelId| decls[rel].name.as_str();
    match dead_end {
        DeadEnd::Conflict => {
            "the target row binds the same variable twice with different values".to_string()
        }
        DeadEnd::NoMatch { rel, pattern } => {
            format!("no row matches {}", fmt_pattern(name(rel), &pattern))
        }
        DeadEnd::Present { rel, row, pattern } => format!(
            "negation violated: {} is present, but the rule requires `not {}`",
            fmt_row(name(rel), &row),
            fmt_pattern(name(rel), &pattern)
        ),
        DeadEnd::Filter => "filter condition evaluates to false".to_string(),
        DeadEnd::Assign { computed, required } => {
            format!("assignment computes {computed} but the target row requires {required}")
        }
        DeadEnd::EmptyFlatMap => "FlatMap collection is empty".to_string(),
        DeadEnd::NoElement { required } => {
            format!("no FlatMap element equals the required value {required}")
        }
        DeadEnd::Head { row } => format!(
            "the rule fires but its head yields {}, not the target",
            fmt_row(name(head), &row)
        ),
    }
}

fn fmt_touch(touch: Option<(u64, u64)>) -> String {
    match touch {
        Some((0, commit)) => format!("  [commit {commit}]"),
        Some((trace, commit)) => format!("  [trace {trace} @ commit {commit}]"),
        None => String::new(),
    }
}

impl WhyNode {
    /// Render the derivation tree as indented text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(depth);
        let tag = if self.base { " — base" } else { "" };
        let rep = if self.repeated {
            " (derivation shown above)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{pad}{}{tag}{rep}{}",
            fmt_row(&self.relation, &self.row),
            fmt_touch(self.touch)
        );
        if let Some(n) = &self.note {
            let _ = writeln!(out, "{pad}  ({n})");
        }
        for j in &self.justs {
            match j.rule_index {
                Some(i) => {
                    let _ = writeln!(out, "{pad}  via rule {i}: {}", j.rule);
                }
                None => {
                    let _ = writeln!(out, "{pad}  via declared fact");
                }
            }
            if let Some(n) = &j.note {
                let _ = writeln!(out, "{pad}    ({n})");
            }
            for s in &j.supports {
                match s {
                    WhySupport::Fact(n) => n.render_into(out, depth + 2),
                    WhySupport::Absent { pattern, .. } => {
                        let _ = writeln!(out, "{pad}    no row matches {pattern} — negation holds");
                    }
                }
            }
        }
    }

    /// Render the derivation tree as JSON.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.json_into(&mut out);
        out
    }

    fn json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let js = telemetry::metrics::json_string;
        let _ = write!(
            out,
            "{{\"relation\":{},\"row\":[{}],\"base\":{},\"repeated\":{}",
            js(&self.relation),
            self.row
                .iter()
                .map(|v| js(&v.to_string()))
                .collect::<Vec<_>>()
                .join(","),
            self.base,
            self.repeated
        );
        match self.touch {
            Some((trace, commit)) => {
                let _ = write!(out, ",\"trace\":{trace},\"commit\":{commit}");
            }
            None => {
                let _ = write!(out, ",\"trace\":null,\"commit\":null");
            }
        }
        if let Some(n) = &self.note {
            let _ = write!(out, ",\"note\":{}", js(n));
        }
        out.push_str(",\"justifications\":[");
        for (i, j) in self.justs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let rule = j
                .rule_index
                .map(|r| r.to_string())
                .unwrap_or_else(|| "null".to_string());
            let _ = write!(
                out,
                "{{\"rule\":{rule},\"text\":{},\"supports\":[",
                js(&j.rule)
            );
            for (k, s) in j.supports.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                match s {
                    WhySupport::Fact(n) => {
                        out.push_str("{\"kind\":\"fact\",\"node\":");
                        n.json_into(out);
                        out.push('}');
                    }
                    WhySupport::Absent { relation, pattern } => {
                        let _ = write!(
                            out,
                            "{{\"kind\":\"absent\",\"relation\":{},\"pattern\":{}}}",
                            js(relation),
                            js(pattern)
                        );
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }

    /// True when every leaf of the tree is a base (input) fact or a
    /// satisfied negation — the acceptance shape of a complete
    /// explanation.
    pub fn rooted_in_base(&self) -> bool {
        if self.base {
            return true;
        }
        if self.repeated {
            // The expansion lives higher in the tree.
            return true;
        }
        !self.justs.is_empty()
            && self.justs.iter().all(|j| {
                j.supports.iter().all(|s| match s {
                    WhySupport::Fact(n) => n.rooted_in_base(),
                    WhySupport::Absent { .. } => true,
                })
            })
    }
}

impl WhyNot {
    /// Render the report as text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let target = fmt_row(&self.relation, &self.row);
        if self.present {
            let _ = writeln!(out, "{target} is present — ask why, not why-not");
            return out;
        }
        if self.input {
            let _ = writeln!(
                out,
                "{target} is an input-relation row that was never inserted \
                 (nothing derives input relations)"
            );
            return out;
        }
        let _ = writeln!(out, "{target} is not derivable:");
        if self.candidates.is_empty() {
            let _ = writeln!(out, "  no rule has this head relation");
        }
        for c in &self.candidates {
            let at = match c.stage {
                Some(s) => format!(" at stage {s}"),
                None => String::new(),
            };
            let _ = writeln!(out, "  rule {} ({}):{at}", c.rule_index, c.rule);
            let _ = writeln!(out, "    {}", c.failure);
        }
        out
    }

    /// Render the report as JSON.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let js = telemetry::metrics::json_string;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"relation\":{},\"row\":[{}],\"present\":{},\"input\":{},\"candidates\":[",
            js(&self.relation),
            self.row
                .iter()
                .map(|v| js(&v.to_string()))
                .collect::<Vec<_>>()
                .join(","),
            self.present,
            self.input
        );
        for (i, c) in self.candidates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let stage = c
                .stage
                .map(|s| s.to_string())
                .unwrap_or_else(|| "null".to_string());
            let _ = write!(
                out,
                "{{\"rule\":{},\"text\":{},\"stage\":{stage},\"failure\":{}}}",
                c.rule_index,
                js(&c.rule),
                js(&c.failure)
            );
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------------
// Queries

/// Everything a provenance query needs from the engine, plus the
/// query's running cost.
pub(crate) struct QueryCtx<'a> {
    pub compiled: &'a CompiledProgram,
    pub stores: &'a [RelationStore],
    pub rule_states: &'a [RuleState],
    /// Per plan index: whether the rule runs in a recursive stratum
    /// (set semantics: its rows carry no per-derivation counts).
    pub recursive_plans: &'a [bool],
    /// Rule index → human-readable rendering.
    pub rule_text: &'a dyn Fn(usize) -> String,
    /// Rows examined so far.
    pub examined: Cell<usize>,
    /// Searches that ran out of budget so far.
    pub truncations: Cell<usize>,
}

/// Depth cap of a derivation tree.
const MAX_DEPTH: usize = 32;
/// Max support rows listed per atom (wildcard atoms can match many).
const MAX_SUPPORT_ROWS: usize = 8;
/// Max justifications expanded per node.
const MAX_JUSTS: usize = 4;
/// Max aggregate contributors expanded per justification.
const MAX_CONTRIBUTORS: usize = 16;
/// Rows one rule's search (or one support lookup) may examine. Probes
/// that hit an arrangement spend one unit per matching row; an atom no
/// arrangement covers is scanned, spending one unit per stored row.
pub const SEARCH_BUDGET: usize = 50_000;

impl<'a> QueryCtx<'a> {
    fn head_row(&self, rule: &CompiledRule, env: &[Value]) -> Result<Vec<Value>> {
        rule.head_exprs.iter().map(|e| eval(e, env)).collect()
    }

    /// Plan indices of the rules headed at `rel`.
    fn rules_of(&self, rel: RelId) -> impl Iterator<Item = usize> + '_ {
        (0..self.compiled.rules.len()).filter(move |pi| self.compiled.rules[*pi].head_rel == rel)
    }

    /// True when `rel` is maintained by a recursive stratum.
    fn is_recursive(&self, rel: RelId) -> bool {
        self.rules_of(rel).any(|pi| self.recursive_plans[pi])
    }

    fn spend(&self, examined: usize, exhausted: bool) {
        self.examined.set(self.examined.get() + examined);
        if exhausted {
            self.truncations.set(self.truncations.get() + 1);
        }
    }
}

fn inconsistent(msg: String) -> Error {
    Error::new(Phase::Eval, format!("{msg} — engine state inconsistent"))
}

/// The rule's aggregate stage, if any: its index and group-key slots.
fn aggregate_of(rule: &CompiledRule) -> Option<(usize, &[usize])> {
    rule.stages.iter().enumerate().find_map(|(i, s)| match s {
        PStage::Aggregate { group_slots, .. } => Some((i, group_slots.as_slice())),
        _ => None,
    })
}

/// The declared type of the column that binds `slot`, when an atom of
/// the rule binds it.
fn slot_type(decls: &[RelationDecl], rule: &CompiledRule, slot: usize) -> Option<Type> {
    rule.stages.iter().find_map(|s| match s {
        PStage::Atom { rel, binds, .. } => binds
            .iter()
            .find(|(_, sl)| *sl == slot)
            .map(|(col, _)| decls[*rel].columns[*col].1.clone()),
        _ => None,
    })
}

/// Bind a head row backwards onto the rule's final environment layout —
/// the one head binder, shared with DRed's re-derivation: a
/// plain-variable argument pins its slot, a constant argument must equal
/// the target (`Err(reason)` when it cannot). Given the relation
/// declarations (`invert_casts`), an argument `x as T` also pins `x`, to
/// the one value of its declared type that casts to the target without
/// wrapping; `.1` reports that such a guess was made (a wrapping preimage
/// would be missed, so [`derivations`] retries uninverted when this comes
/// up short). Computed arguments stay unbound and are checked at the
/// leaf.
pub(crate) fn head_init(
    rule: &CompiledRule,
    row: &[Value],
    invert_casts: Option<&[RelationDecl]>,
) -> std::result::Result<(Vec<(usize, Value)>, bool), String> {
    let mut init = Vec::new();
    let mut guessed = false;
    for (e, v) in rule.head_exprs.iter().zip(row) {
        match e {
            CExpr::Var(s) => init.push((*s, v.clone())),
            CExpr::Const(c) if c != v => {
                return Err(format!(
                    "head constant {c} can never equal the target's {v}"
                ));
            }
            CExpr::Cast(inner, to) if invert_casts.is_some() => {
                let CExpr::Var(s) = **inner else { continue };
                // Behind an aggregate the head's slots name group keys
                // (the aggregate result has no declared column type).
                let declared = match aggregate_of(rule) {
                    Some((_, group_slots)) => group_slots.get(s).copied(),
                    None => Some(s),
                }
                .and_then(|pre| slot_type(invert_casts?, rule, pre));
                let back = declared.and_then(|ty| eval_cast(v.clone(), &ty).ok());
                if let Some(u) = back.filter(|u| eval_cast(u.clone(), to).as_ref() == Ok(v)) {
                    init.push((s, u));
                    guessed = true;
                }
            }
            _ => {}
        }
    }
    Ok((init, guessed))
}

/// What the search found for one rule headed at the target's relation.
enum Outcome {
    /// The environments (final layout) under which the rule derives
    /// the row, one per derivation.
    Derives(Vec<Vec<Value>>),
    /// The deepest literal that blocks every derivation (`stage` is
    /// `None` when the head itself rules the row out).
    Blocked {
        stage: Option<usize>,
        failure: String,
    },
}

/// The result of searching every rule (and declared fact) for
/// derivations of one row.
struct Search {
    /// Per rule headed at the relation, by plan index.
    rules: Vec<(usize, Outcome)>,
    /// Declared facts equal to the row.
    facts: usize,
    /// A head cast was inverted by guess (see [`head_init`]).
    guessed: bool,
    /// More derivations exist than the cap admitted.
    capped: bool,
    /// Some rule's search ran out of budget.
    truncated: bool,
}

impl Search {
    fn found(&self) -> usize {
        let envs = self.rules.iter().map(|(_, o)| match o {
            Outcome::Derives(envs) => envs.len(),
            Outcome::Blocked { .. } => 0,
        });
        self.facts + envs.sum::<usize>()
    }
}

fn truncated_outcome(stage: Option<usize>, examined: usize) -> Outcome {
    Outcome::Blocked {
        stage,
        failure: format!("search truncated: {examined} rows examined without settling this rule"),
    }
}

/// Resolve an aggregate rule's head against the chain evaluator's live
/// groups: the post-aggregate environments (`key ++ [aggregate]`) whose
/// head is the target, or — when the head pins one existing group that
/// aggregates to something else — that mismatch. `Ok(None)` when no
/// group is in play and the body has to say why.
fn group_envs(
    ctx: &QueryCtx<'_>,
    pi: usize,
    ai: usize,
    init: &[(usize, Value)],
    row: &Row,
) -> Result<Option<Outcome>> {
    let rule = &ctx.compiled.rules[pi];
    let PStage::Aggregate {
        group_slots,
        func,
        arg,
    } = &rule.stages[ai]
    else {
        unreachable!("stage {ai} is not the aggregate")
    };
    let groups = ctx.rule_states[pi]
        .stage_groups(ai)
        .ok_or_else(|| inconsistent("aggregate stage without groups".to_string()))?;
    let bound = |j: usize| init.iter().find(|(s, _)| *s == j).map(|(_, v)| v);
    let pinned: Option<Vec<Value>> = (0..group_slots.len()).map(|j| bound(j).cloned()).collect();
    let keys: Vec<&Vec<Value>> = match &pinned {
        Some(key) => groups
            .get_key_value(key)
            .map(|(k, _)| k)
            .into_iter()
            .collect(),
        // The head leaves part of the key open: scan the groups — all
        // of them or none, so the answer does not depend on hash order.
        None if groups.len() > SEARCH_BUDGET => {
            ctx.spend(SEARCH_BUDGET, true);
            return Ok(Some(truncated_outcome(Some(ai), SEARCH_BUDGET)));
        }
        None => groups
            .keys()
            .filter(|k| (0..k.len()).all(|j| bound(j).is_none_or(|v| *v == k[j])))
            .collect(),
    };
    ctx.spend(if pinned.is_some() { 1 } else { groups.len() }, false);
    let mut envs = Vec::new();
    let mut mismatch = None;
    for key in keys {
        let group = &groups[key];
        let agg = eval_aggregate(*func, arg.as_ref(), group)?;
        let mut env = key.clone();
        env.push(agg.clone());
        if ctx.head_row(rule, &env)? == **row {
            envs.push(env);
        } else if let (Some(_), Some(want)) = (&pinned, bound(group_slots.len())) {
            mismatch = Some(Outcome::Blocked {
                stage: Some(ai),
                failure: format!(
                    "the {} contributing row(s) aggregate to {agg}, not the target's {want}",
                    group.support().count()
                ),
            });
        }
    }
    Ok(if envs.is_empty() {
        mismatch
    } else {
        Some(Outcome::Derives(envs))
    })
}

/// The one search: for each rule headed at `rel`, how (or why not) it
/// derives `row`. At most `env_cap` derivations are collected.
fn search(
    ctx: &QueryCtx<'_>,
    rel: RelId,
    row: &Row,
    env_cap: usize,
    invert_casts: bool,
) -> Result<Search> {
    let view = View::new(ctx.stores);
    let truncations = ctx.truncations.get();
    let facts = ctx.compiled.facts.iter();
    let mut out = Search {
        rules: Vec::new(),
        facts: facts.filter(|(r, v)| *r == rel && v == &**row).count(),
        guessed: false,
        capped: false,
        truncated: false,
    };
    for pi in ctx.rules_of(rel) {
        let rule = &ctx.compiled.rules[pi];
        let decls = invert_casts.then_some(&ctx.compiled.decls[..]);
        let init = match head_init(rule, row, decls) {
            Ok((init, guessed)) => {
                out.guessed |= guessed;
                init
            }
            Err(failure) => {
                let stage = None;
                out.rules.push((pi, Outcome::Blocked { stage, failure }));
                continue;
            }
        };
        // What to walk: the whole body, checking the head at the leaf;
        // or, for an aggregate rule whose groups did not settle the
        // question, the stages that feed the groups (head slots mapped
        // back through the group key) — only to find the literal that
        // keeps rows from reaching the target's group.
        let agg = aggregate_of(rule);
        let (body, init, target, cap) = match agg {
            None => {
                let room = env_cap.saturating_sub(out.found());
                (&rule.stages[..], init, Some(&row[..]), room)
            }
            Some((ai, group_slots)) => {
                if let Some(outcome) = group_envs(ctx, pi, ai, &init, row)? {
                    out.rules.push((pi, outcome));
                    continue;
                }
                let pre = init
                    .into_iter()
                    .filter_map(|(s, v)| group_slots.get(s).map(|p| (*p, v)))
                    .collect();
                (&rule.stages[..ai], pre, None, 1)
            }
        };
        let mut walk = Walk::explain(body, &view, &rule.head_exprs, target, SEARCH_BUDGET, cap);
        let order: Vec<usize> = (0..body.len()).collect();
        walk.run(&order, &init, None)?;
        ctx.spend(walk.examined, walk.truncated);
        let Sink::Envs { envs, .. } = walk.sink else {
            unreachable!("an explaining walk keeps environments")
        };
        let outcome = match (agg, walk.fail) {
            (_, fail) if walk.truncated => truncated_outcome(fail.map(|(s, _)| s), walk.examined),
            (None, _) if !envs.is_empty() => {
                out.capped |= walk.capped;
                Outcome::Derives(envs)
            }
            (Some((ai, _)), _) if !envs.is_empty() => Outcome::Blocked {
                stage: Some(ai),
                failure: "rows reach the aggregate but no group yields the target".to_string(),
            },
            (_, Some((stage, dead_end))) => Outcome::Blocked {
                stage: Some(stage),
                failure: fmt_dead_end(&ctx.compiled.decls, rel, dead_end),
            },
            (_, None) => Outcome::Blocked {
                stage: Some(0),
                failure: "rule body is never satisfiable".to_string(),
            },
        };
        out.rules.push((pi, outcome));
    }
    out.truncated = ctx.truncations.get() > truncations;
    Ok(out)
}

/// [`search`] with head casts inverted; when that finds fewer
/// derivations than the store says exist (a cast wrapped), once more
/// without. Recursive relations keep no counts, so there any
/// derivation suffices.
fn derivations(ctx: &QueryCtx<'_>, rel: RelId, row: &Row, env_cap: usize) -> Result<Search> {
    let s = search(ctx, rel, row, env_cap, true)?;
    let want = if ctx.is_recursive(rel) {
        1
    } else {
        ctx.stores[rel].derivation_count(row).max(1) as usize
    };
    if s.guessed && s.found() < want.min(env_cap) {
        return search(ctx, rel, row, env_cap, false);
    }
    Ok(s)
}

/// Build the derivation tree of a visible row.
pub(crate) fn why(ctx: &QueryCtx<'_>, rel: RelId, row: &Row) -> Result<WhyNode> {
    let mut stack = Vec::new();
    why_node(ctx, rel, row, &mut stack, 0)
}

fn why_node(
    ctx: &QueryCtx<'_>,
    rel: RelId,
    row: &Row,
    stack: &mut Vec<(RelId, Row)>,
    depth: usize,
) -> Result<WhyNode> {
    let decl = &ctx.compiled.decls[rel];
    let mut node = WhyNode {
        relation: decl.name.clone(),
        row: (**row).clone(),
        base: decl.role == RelationRole::Input,
        touch: ctx.stores[rel].last_touch(row),
        justs: Vec::new(),
        repeated: false,
        note: None,
        examined: 0,
        truncated: false,
    };
    if node.base {
        return Ok(node);
    }
    if stack.iter().any(|(r, w)| *r == rel && w == row) {
        node.repeated = true;
        return Ok(node);
    }
    if depth >= MAX_DEPTH {
        node.note = Some(format!("depth limit {MAX_DEPTH} reached"));
        return Ok(node);
    }
    let (examined, truncations) = (ctx.examined.get(), ctx.truncations.get());
    let found = derivations(ctx, rel, row, MAX_JUSTS)?;
    // (On error the whole query is abandoned, stack included.)
    stack.push((rel, row.clone()));
    for _ in 0..found.facts.min(MAX_JUSTS) {
        node.justs.push(WhyJust {
            rule_index: None,
            rule: "declared fact".to_string(),
            supports: Vec::new(),
            note: None,
        });
    }
    for (pi, outcome) in &found.rules {
        let Outcome::Derives(envs) = outcome else {
            continue;
        };
        for env in envs.iter().take(MAX_JUSTS - node.justs.len()) {
            node.justs.push(env_just(ctx, *pi, env, stack, depth)?);
        }
    }
    stack.pop();
    node.examined = ctx.examined.get() - examined;
    node.truncated = ctx.truncations.get() > truncations;
    if node.justs.is_empty() {
        if !found.truncated {
            return Err(inconsistent(format!(
                "no derivation found for visible row {}",
                fmt_row(&decl.name, row)
            )));
        }
        node.note = Some(format!(
            "derivation search truncated: budget of {SEARCH_BUDGET} rows per rule exhausted \
             before a derivation was found"
        ));
    } else if found.capped || found.found() > node.justs.len() {
        node.note = Some("further derivation(s) not shown".to_string());
    } else if found.truncated {
        node.note = Some("derivation search truncated".to_string());
    }
    Ok(node)
}

/// Expand one `(rule, environment)` derivation into its supports: the
/// input rows each atom matched, re-found by projecting the environment
/// back through the atom's columns, each explained in turn.
fn env_just(
    ctx: &QueryCtx<'_>,
    pi: usize,
    env: &[Value],
    stack: &mut Vec<(RelId, Row)>,
    depth: usize,
) -> Result<WhyJust> {
    let rule = &ctx.compiled.rules[pi];
    let mut supports = Vec::new();
    let mut notes = Vec::new();
    let mut seen: HashSet<(RelId, Row)> = HashSet::new();
    // Behind an aggregate the environment is `key ++ [aggregate]` and
    // the supports are those of the group's contributing bindings.
    let (stages, envs): (&[PStage], Vec<&[Value]>) = match aggregate_of(rule) {
        None => (&rule.stages, vec![env]),
        Some((ai, _)) => {
            let groups = ctx.rule_states[pi].stage_groups(ai);
            let mut contributors: Vec<&[Value]> = groups
                .and_then(|g| g.get(&env[..env.len() - 1]))
                .map(|z| z.support().map(|b| b.as_slice()).collect())
                .unwrap_or_default();
            contributors.sort();
            if contributors.is_empty() {
                let msg = "aggregation group vanished mid-query";
                return Err(inconsistent(msg.to_string()));
            }
            if contributors.len() > MAX_CONTRIBUTORS {
                notes.push(format!(
                    "{MAX_CONTRIBUTORS} of {} aggregate contributors shown",
                    contributors.len()
                ));
                contributors.truncate(MAX_CONTRIBUTORS);
            }
            (&rule.stages[..ai], contributors)
        }
    };
    for (env, stage) in envs.iter().flat_map(|e| stages.iter().map(move |s| (e, s))) {
        let PStage::Atom { rel, neg, .. } = stage else {
            continue;
        };
        let decl = &ctx.compiled.decls[*rel];
        let pattern = atom_pattern(stage, decl.arity(), env, |_| true);
        let shown = fmt_pattern(&decl.name, &pattern);
        if *neg {
            supports.push(WhySupport::Absent {
                relation: decl.name.clone(),
                pattern: shown,
            });
            continue;
        }
        let m = View::new(ctx.stores).probe(*rel, &pattern, MAX_SUPPORT_ROWS, SEARCH_BUDGET);
        ctx.spend(m.examined, m.exhausted);
        if m.capped {
            notes.push(format!(
                "support rows of {shown} truncated at {MAX_SUPPORT_ROWS}"
            ));
        }
        if m.exhausted {
            notes.push(format!("lookup of {shown} truncated"));
        } else if m.rows.is_empty() {
            return Err(inconsistent(format!(
                "a derivation cites {shown} but no visible row matches"
            )));
        }
        for r in m.rows {
            if seen.insert((*rel, r.clone())) {
                supports.push(WhySupport::Fact(why_node(ctx, *rel, &r, stack, depth + 1)?));
            }
        }
    }
    Ok(WhyJust {
        rule_index: Some(rule.rule_index),
        rule: (ctx.rule_text)(rule.rule_index),
        supports,
        note: (!notes.is_empty()).then(|| notes.join("; ")),
    })
}

/// Report why `row` is absent from `rel`: the deepest failing literal
/// of every candidate rule.
pub(crate) fn why_not(ctx: &QueryCtx<'_>, rel: RelId, row: &Row) -> Result<WhyNot> {
    let decl = &ctx.compiled.decls[rel];
    let mut report = WhyNot {
        relation: decl.name.clone(),
        row: (**row).clone(),
        present: ctx.stores[rel].contains(row),
        input: decl.role == RelationRole::Input,
        candidates: Vec::new(),
        examined: 0,
        truncated: false,
    };
    if report.present || report.input {
        return Ok(report);
    }
    for (pi, outcome) in search(ctx, rel, row, 1, true)?.rules {
        let rule = &ctx.compiled.rules[pi];
        let (stage, failure) = match outcome {
            Outcome::Blocked { stage, failure } => (stage, failure),
            Outcome::Derives(_) => (
                Some(rule.stages.len()),
                "body satisfied and head matches — engine state inconsistent".to_string(),
            ),
        };
        report.candidates.push(CandidateReport {
            rule_index: rule.rule_index,
            rule: (ctx.rule_text)(rule.rule_index),
            stage,
            failure,
        });
    }
    report.examined = ctx.examined.get();
    report.truncated = ctx.truncations.get() > 0;
    Ok(report)
}

// ---------------------------------------------------------------------------
// Validation

/// Check the search against the stores, row by row: every visible
/// derived row has a derivation, and for chain-maintained relations an
/// untruncated search finds exactly as many derivations as the store
/// counts — the evaluator's ±w bookkeeping and the search are two
/// independent computations of the same number. O(state × search): a
/// test and debugging aid, like
/// [`crate::engine::Engine::validate_arrangements`].
pub(crate) fn validate(ctx: &QueryCtx<'_>) -> Result<()> {
    for (rel, decl) in ctx.compiled.decls.iter().enumerate() {
        if decl.role == RelationRole::Input {
            continue;
        }
        let counted = !ctx.is_recursive(rel);
        for (row, count) in ctx.stores[rel].rows_with_counts() {
            let found = derivations(ctx, rel, row, usize::MAX)?;
            if found.truncated {
                continue;
            }
            let n = found.found() as isize;
            if n == 0 || (counted && n != count) {
                return Err(inconsistent(format!(
                    "the store holds {count} derivation(s) of {} but the search finds {n}",
                    fmt_row(&decl.name, row)
                )));
            }
        }
    }
    Ok(())
}

/// The `/why` exposition document: visible derived rows per relation.
/// O(#relations) — the stores already know their sizes.
pub(crate) fn summary_json(ctx: &QueryCtx<'_>, commits: u64) -> String {
    use std::fmt::Write as _;
    let js = telemetry::metrics::json_string;
    let derived: Vec<(&str, usize)> = ctx
        .compiled
        .decls
        .iter()
        .zip(ctx.stores)
        .filter(|(d, s)| d.role != RelationRole::Input && !s.is_empty())
        .map(|(d, s)| (d.name.as_str(), s.len()))
        .collect();
    let mut out = format!(
        "{{\"schema\":\"nerpa.why.v1\",\"enabled\":true,\"commits\":{commits},\"rows\":{},\
         \"search_budget\":{SEARCH_BUDGET},\"relations\":[",
        derived.iter().map(|(_, n)| n).sum::<usize>()
    );
    for (i, (name, rows)) in derived.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"relation\":{},\"rows\":{rows}}}", js(name));
    }
    out.push_str(
        "],\"usage\":\"Engine::why(relation, row) / Engine::why_not(relation, row); \
         CLI: nerpa why\"}",
    );
    out
}
