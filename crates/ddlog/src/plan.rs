//! Rule planning: lowering type-checked rules into stage pipelines.
//!
//! Every rule becomes a left-to-right pipeline of [`PStage`]s. The same
//! plan is interpreted two ways:
//!
//! * by [`crate::chain`] for non-recursive strata — fully incremental with
//!   maintained arrangements (work ∝ |Δ|);
//! * by [`crate::recursive`] for recursive strata — semi-naive fixpoint and
//!   delete–re-derive, driving deltas through any atom position.
//!
//! Planning also registers every hash index the pipelines will need on the
//! relation stores (indexes must exist before data arrives).

use std::collections::{HashMap, HashSet};

use crate::ast::*;
use crate::cexpr::CExpr;
use crate::error::{Error, Phase, Result};
use crate::store::{RelId, RelationStore};
use crate::typecheck::{literal_value, CheckedProgram};
use crate::types::Type;
use crate::value::Value;

/// Where a key component comes from at lookup time.
#[derive(Debug, Clone, PartialEq)]
pub enum KeySrc {
    /// A literal from the atom pattern.
    Const(Value),
    /// An environment slot bound by an earlier stage.
    Slot(usize),
}

/// One pipeline stage.
#[derive(Debug, Clone)]
pub enum PStage {
    /// Join (or antijoin when `neg`) with a relation.
    Atom {
        /// The relation joined against.
        rel: RelId,
        /// True for `not Rel(..)`.
        neg: bool,
        /// Columns forming the lookup key, ascending.
        key_cols: Vec<usize>,
        /// Value source for each key column (parallel to `key_cols`).
        key_srcs: Vec<KeySrc>,
        /// Intra-atom repeated variables: (column, column bound earlier in
        /// this same atom) equality checks.
        checks: Vec<(usize, usize)>,
        /// Columns bound into fresh environment slots: (column, slot).
        binds: Vec<(usize, usize)>,
    },
    /// Boolean condition.
    Filter {
        /// Must evaluate to `true` for the binding to pass.
        expr: CExpr,
    },
    /// `var x = expr` appends one slot.
    Assign {
        /// Destination slot.
        slot: usize,
        /// Defining expression.
        expr: CExpr,
    },
    /// `var x = FlatMap(e)` appends one slot per element.
    FlatMap {
        /// Destination slot.
        slot: usize,
        /// Collection expression.
        expr: CExpr,
    },
    /// Aggregation; collapses the environment to `group_slots` + result.
    Aggregate {
        /// Slots (old layout) forming the group key.
        group_slots: Vec<usize>,
        /// The aggregation function.
        func: AggFunc,
        /// Aggregated expression over the old layout.
        arg: Option<CExpr>,
    },
}

/// Stage orders for the drive contexts of recursive evaluation.
///
/// A rule's stages are planned left to right, so each atom's key holds
/// only the slots earlier stages bind. Driven evaluation binds slots in
/// another order — a delta row pre-binds the driven atom's slots, and
/// re-derivation pre-binds the head's — so each context gets its own
/// order, most constrained atom first, and planning registers the
/// arrangement every probe in that order will find. The keys themselves
/// are read off the bound slots at run time (`recursive::Walk`).
#[derive(Debug, Clone, Default)]
pub struct DrivePlans {
    /// Per stage index: the order of the *other* stages when a delta row
    /// drives that atom (empty for stages that are not atoms).
    pub from: Vec<Vec<usize>>,
    /// The order for re-derivation, where the head row binds slots
    /// first; body order when the head binds none.
    pub rederive: Vec<usize>,
}

/// A fully planned rule.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Index of the source rule in the program.
    pub rule_index: usize,
    /// Head relation.
    pub head_rel: RelId,
    /// Head expressions over the final environment layout.
    pub head_exprs: Vec<CExpr>,
    /// The pipeline.
    pub stages: Vec<PStage>,
    /// Final environment size. Only meaningful when the rule has no
    /// aggregate (recursive rules never do).
    pub n_slots: usize,
    /// True if the rule contains an [`PStage::Aggregate`].
    pub has_aggregate: bool,
    /// The distinct relations referenced by body atoms.
    pub body_rels: Vec<RelId>,
    /// Stage orders for driven evaluation, built by
    /// [`build_drive_plans`] for recursive rules. Empty for chain rules.
    pub drive_plans: DrivePlans,
}

/// One shared, maintained arrangement: a keyed hash index over `rel`'s
/// visible rows by `cols`, probed by every operator listed in `users`.
/// The spec's position in [`CompiledProgram::arrangements`] is its
/// catalog id, which its [`crate::profile::OpKind::Arrange`] operator
/// and the store-side [`crate::arrange::Arrangement`] both carry.
#[derive(Debug, Clone)]
pub struct ArrangementSpec {
    /// The indexed relation.
    pub rel: RelId,
    /// Key columns, ascending.
    pub cols: Vec<usize>,
    /// Labels of the operators sharing this arrangement.
    pub users: Vec<String>,
}

/// A compiled program: relation metadata plus per-rule plans.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Relation name → id.
    pub rel_ids: HashMap<String, RelId>,
    /// Relation id → declaration (same order as stores).
    pub decls: Vec<RelationDecl>,
    /// Plans, one per rule with a non-empty body.
    pub rules: Vec<CompiledRule>,
    /// Constant facts: `(relation, row)` from empty-body rules.
    pub facts: Vec<(RelId, Vec<Value>)>,
    /// Every maintained arrangement, deduplicated by `(rel, cols)` and
    /// shared across operators. Indexed by catalog id.
    pub arrangements: Vec<ArrangementSpec>,
}

/// Register (or join) the shared arrangement over `(rel, cols)`,
/// recording `user` as one of its operators and making sure the store
/// maintains it. Returns the arrangement's catalog id. Must run before
/// data arrives (registration is a plan-time act).
fn register_arrangement(
    specs: &mut Vec<ArrangementSpec>,
    stores: &mut [RelationStore],
    rel: RelId,
    cols: &[usize],
    user: String,
) -> usize {
    if let Some(i) = specs.iter().position(|s| s.rel == rel && s.cols == cols) {
        stores[rel].register_arrangement(cols, Some(i));
        if !specs[i].users.contains(&user) {
            specs[i].users.push(user);
        }
        return i;
    }
    let id = specs.len();
    stores[rel].register_arrangement(cols, Some(id));
    specs.push(ArrangementSpec {
        rel,
        cols: cols.to_vec(),
        users: vec![user],
    });
    id
}

/// Plan all rules of a checked program, registering needed indexes on
/// `stores` (which must be freshly created, one per relation, in
/// declaration order).
pub fn plan(checked: &CheckedProgram, stores: &mut [RelationStore]) -> Result<CompiledProgram> {
    let program = &checked.program;
    let rel_ids: HashMap<String, RelId> = program
        .relations
        .iter()
        .enumerate()
        .map(|(i, r)| (r.name.clone(), i))
        .collect();

    let mut rules = Vec::new();
    let mut facts = Vec::new();
    let mut arrangements = Vec::new();

    for (rule_index, rule) in program.rules.iter().enumerate() {
        if rule.body.is_empty() {
            facts.push(plan_fact(rule, &rel_ids, program)?);
            continue;
        }
        let compiled = plan_rule(
            rule_index,
            rule,
            &rel_ids,
            program,
            stores,
            &mut arrangements,
        )?;
        rules.push(compiled);
    }

    Ok(CompiledProgram {
        rel_ids,
        decls: program.relations.clone(),
        rules,
        facts,
        arrangements,
    })
}

fn plan_fact(
    rule: &Rule,
    rel_ids: &HashMap<String, RelId>,
    program: &Program,
) -> Result<(RelId, Vec<Value>)> {
    let rel = rel_ids[&rule.head.relation];
    let decl = program.relation(&rule.head.relation).unwrap();
    let empty_layout = HashMap::new();
    let mut row = Vec::with_capacity(rule.head.args.len());
    for (expr, (cname, _)) in rule.head.args.iter().zip(&decl.columns) {
        let ce = lower_expr(expr, &empty_layout)?;
        match const_fold(&ce) {
            Some(v) => row.push(v),
            None => {
                return Err(Error::at(
                    Phase::Type,
                    expr.pos,
                    format!("fact argument for column `{cname}` is not constant"),
                ))
            }
        }
    }
    Ok((rel, row))
}

fn plan_rule(
    rule_index: usize,
    rule: &Rule,
    rel_ids: &HashMap<String, RelId>,
    program: &Program,
    stores: &mut [RelationStore],
    arrangements: &mut Vec<ArrangementSpec>,
) -> Result<CompiledRule> {
    // slot layout: var name → slot, in binding order.
    let mut layout: HashMap<String, usize> = HashMap::new();
    let mut stages = Vec::with_capacity(rule.body.len());
    let mut has_aggregate = false;
    let mut body_rels = Vec::new();

    for item in &rule.body {
        match item {
            BodyItem::Atom(atom) | BodyItem::Not(atom) => {
                let neg = matches!(item, BodyItem::Not(_));
                let rel = rel_ids[&atom.relation];
                if !body_rels.contains(&rel) {
                    body_rels.push(rel);
                }
                let decl = program.relation(&atom.relation).unwrap();
                let mut key_cols = Vec::new();
                let mut key_srcs = Vec::new();
                let mut checks = Vec::new();
                let mut binds = Vec::new();
                // Track columns bound within this atom: var → first col.
                let mut local: HashMap<&str, usize> = HashMap::new();
                for (col, (pat, (_, cty))) in atom.args.iter().zip(&decl.columns).enumerate() {
                    match pat {
                        Pattern::Wildcard => {}
                        Pattern::Lit(lit) => {
                            let v = literal_value(lit, cty)
                                .map_err(|m| Error::at(Phase::Type, atom.pos, m))?;
                            key_cols.push(col);
                            key_srcs.push(KeySrc::Const(v));
                        }
                        Pattern::Var(name) => {
                            if let Some(&first_col) = local.get(name.as_str()) {
                                // Repeated within this atom → check.
                                checks.push((col, first_col));
                            } else if let Some(&slot) = layout.get(name.as_str()) {
                                // Bound by an earlier stage → join key.
                                key_cols.push(col);
                                key_srcs.push(KeySrc::Slot(slot));
                            } else {
                                // Fresh binding.
                                let slot = layout.len();
                                layout.insert(name.clone(), slot);
                                local.insert(name.as_str(), col);
                                binds.push((col, slot));
                            }
                        }
                    }
                }
                if !key_cols.is_empty() {
                    register_arrangement(
                        arrangements,
                        stores,
                        rel,
                        &key_cols,
                        format!("rule {rule_index} stage {}", stages.len()),
                    );
                }
                stages.push(PStage::Atom {
                    rel,
                    neg,
                    key_cols,
                    key_srcs,
                    checks,
                    binds,
                });
            }
            BodyItem::Cond(expr) => {
                stages.push(PStage::Filter {
                    expr: lower_expr(expr, &layout)?,
                });
            }
            BodyItem::Assign { var, expr, .. } => {
                let ce = lower_expr(expr, &layout)?;
                let slot = layout.len();
                layout.insert(var.clone(), slot);
                stages.push(PStage::Assign { slot, expr: ce });
            }
            BodyItem::FlatMap { var, expr, .. } => {
                let ce = lower_expr(expr, &layout)?;
                let slot = layout.len();
                layout.insert(var.clone(), slot);
                stages.push(PStage::FlatMap { slot, expr: ce });
            }
            BodyItem::Aggregate {
                out_var,
                func,
                arg,
                by,
                ..
            } => {
                has_aggregate = true;
                let group_slots: Vec<usize> = by.iter().map(|k| layout[k.as_str()]).collect();
                let arg_ce = match arg {
                    Some(a) => Some(lower_expr(a, &layout)?),
                    None => None,
                };
                // Environment collapses: new layout is keys then the
                // aggregate output.
                let mut new_layout = HashMap::new();
                for (i, k) in by.iter().enumerate() {
                    new_layout.insert(k.clone(), i);
                }
                new_layout.insert(out_var.clone(), by.len());
                layout = new_layout;
                stages.push(PStage::Aggregate {
                    group_slots,
                    func: *func,
                    arg: arg_ce,
                });
            }
        }
    }

    // Head.
    let head_rel = rel_ids[&rule.head.relation];
    let mut head_exprs = Vec::with_capacity(rule.head.args.len());
    for expr in &rule.head.args {
        head_exprs.push(lower_expr(expr, &layout)?);
    }
    Ok(CompiledRule {
        rule_index,
        head_rel,
        head_exprs,
        stages,
        n_slots: layout.len(),
        has_aggregate,
        body_rels,
        drive_plans: DrivePlans::default(),
    })
}

/// Build the drive orders for the rules of one recursive stratum
/// (`plan_idxs`), registering the arrangements their probes need. Must
/// run after [`plan`] and before data arrives.
pub fn build_drive_plans(
    compiled: &mut CompiledProgram,
    plan_idxs: &[usize],
    scc_rels: &HashSet<RelId>,
    stores: &mut [RelationStore],
) {
    let CompiledProgram {
        rules,
        arrangements,
        ..
    } = compiled;
    for &pi in plan_idxs {
        let rule = &rules[pi];
        let (ri, n) = (rule.rule_index, rule.stages.len());
        let mut from = vec![Vec::new(); n];
        for (idx, stage) in rule.stages.iter().enumerate() {
            let PStage::Atom { neg, .. } = stage else {
                continue;
            };
            if *neg {
                // A change to a negated relation seeds the fixpoint
                // (an insertion can kill derivations, a deletion enable
                // them): body order, keyed on whatever is bound.
                from[idx] = (0..n).filter(|i| *i != idx).collect();
                continue;
            }
            // A driving row binds every slot the atom mentions.
            let bound = atom_cols(stage)
                .filter_map(|(_, src)| match src {
                    ColSrc::Slot(s) => Some(s),
                    ColSrc::Const(_) => None,
                })
                .collect();
            let user = format!("rule {ri} drive@{idx}");
            from[idx] = replan(
                &rule.stages,
                Some(idx),
                bound,
                scc_rels,
                arrangements,
                stores,
                &user,
            );
        }
        // Re-derivation pins the slots the head's plain variables name
        // (see `provenance::head_init`); a head that names none
        // enumerates its rule forward.
        let bound: HashSet<usize> = rule
            .head_exprs
            .iter()
            .filter_map(|e| match e {
                CExpr::Var(s) => Some(*s),
                _ => None,
            })
            .collect();
        let rederive = if bound.is_empty() {
            (0..n).collect()
        } else {
            let user = format!("rule {ri} rederive");
            replan(
                &rule.stages,
                None,
                bound,
                scc_rels,
                arrangements,
                stores,
                &user,
            )
        };
        rules[pi].drive_plans = DrivePlans { from, rederive };
    }
}

/// The value source of one atom column under any binding order.
pub(crate) enum ColSrc<'a> {
    /// The column must equal this literal.
    Const(&'a Value),
    /// The column carries this environment slot's value.
    Slot(usize),
}

/// Every column an atom constrains, with its source, wildcards left out.
/// A planned atom splits its columns into key, bind and check columns
/// for the left-to-right binding order; this undoes the split, so a walk
/// in any order can key on whichever slots it has bound.
pub(crate) fn atom_cols(stage: &PStage) -> impl Iterator<Item = (usize, ColSrc<'_>)> {
    let PStage::Atom {
        key_cols,
        key_srcs,
        checks,
        binds,
        ..
    } = stage
    else {
        unreachable!("column sources of a non-atom stage")
    };
    let keys = key_cols.iter().zip(key_srcs).map(|(c, s)| match s {
        KeySrc::Const(v) => (*c, ColSrc::Const(v)),
        KeySrc::Slot(sl) => (*c, ColSrc::Slot(*sl)),
    });
    let bound = binds.iter().map(|(c, sl)| (*c, ColSrc::Slot(*sl)));
    // Column `a` repeats the variable first bound at column `b`.
    let repeats = checks.iter().filter_map(|(a, b)| {
        let (_, sl) = binds.iter().find(|(c, _)| c == b)?;
        Some((*a, ColSrc::Slot(*sl)))
    });
    keys.chain(bound).chain(repeats)
}

/// True when every slot `expr` reads is in `bound`.
fn slots_bound(expr: &CExpr, bound: &HashSet<usize>) -> bool {
    let mut ok = true;
    expr.visit_slots(&mut |s| ok &= bound.contains(&s));
    ok
}

/// Greedily order `stages` (minus `exclude`) for a context where `bound`
/// slots are pre-bound, registering the arrangement each atom's probe
/// will key on.
#[allow(clippy::too_many_arguments)]
fn replan(
    stages: &[PStage],
    exclude: Option<usize>,
    mut bound: HashSet<usize>,
    scc_rels: &HashSet<RelId>,
    arrangements: &mut Vec<ArrangementSpec>,
    stores: &mut [RelationStore],
    user: &str,
) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..stages.len()).filter(|i| Some(*i) != exclude).collect();
    let mut out = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        // Take every computed stage whose inputs are bound, in original
        // order, before probing another atom — filters prune early and
        // assignments may unlock more key columns.
        let mut progressed = true;
        while progressed {
            progressed = false;
            let mut j = 0;
            while j < remaining.len() {
                let i = remaining[j];
                let take = match &stages[i] {
                    PStage::Filter { expr } => slots_bound(expr, &bound),
                    PStage::Assign { slot, expr } | PStage::FlatMap { slot, expr } => {
                        let ok = slots_bound(expr, &bound);
                        if ok {
                            bound.insert(*slot);
                        }
                        ok
                    }
                    PStage::Atom { .. } | PStage::Aggregate { .. } => false,
                };
                if take {
                    out.push(remaining.remove(j));
                    progressed = true;
                } else {
                    j += 1;
                }
            }
        }
        if remaining.is_empty() {
            break;
        }
        // Pick the most constrained atom; break ties toward non-SCC
        // relations (their keyed fan-out reflects the data, not the
        // fixpoint's full frontier) and then original order.
        type Score = (usize, bool, std::cmp::Reverse<usize>);
        let mut best: Option<(Score, usize, Vec<usize>)> = None;
        for (j, &i) in remaining.iter().enumerate() {
            let PStage::Atom { rel, neg, .. } = &stages[i] else {
                continue;
            };
            let (mut known, mut free) = (Vec::new(), false);
            for (col, src) in atom_cols(&stages[i]) {
                match src {
                    ColSrc::Slot(s) if !bound.contains(&s) => free = true,
                    _ => known.push(col),
                }
            }
            if *neg && free {
                continue; // negation needs every variable bound
            }
            known.sort_unstable();
            let score = (known.len(), !scc_rels.contains(rel), std::cmp::Reverse(i));
            if best.as_ref().is_none_or(|(b, _, _)| score > *b) {
                best = Some((score, j, known));
            }
        }
        let Some((_, j, known)) = best else {
            // Stuck (only an aggregate does this): the original order
            // binds every slot before its use.
            out.append(&mut remaining);
            break;
        };
        let i = remaining.remove(j);
        let PStage::Atom { rel, .. } = &stages[i] else {
            unreachable!()
        };
        if !known.is_empty() {
            register_arrangement(arrangements, stores, *rel, &known, user.to_string());
        }
        for (_, src) in atom_cols(&stages[i]) {
            if let ColSrc::Slot(s) = src {
                bound.insert(s);
            }
        }
        out.push(i);
    }
    out
}

/// Lower an AST expression to a compiled expression, resolving variables
/// against `layout` and folding constants.
pub fn lower_expr(expr: &Expr, layout: &HashMap<String, usize>) -> Result<CExpr> {
    let ce = lower_inner(expr, layout)?;
    Ok(match const_fold(&ce) {
        Some(v) => CExpr::Const(v),
        None => ce,
    })
}

fn lower_inner(expr: &Expr, layout: &HashMap<String, usize>) -> Result<CExpr> {
    Ok(match &expr.kind {
        ExprKind::Lit(lit) => CExpr::Const(natural_literal(lit)),
        ExprKind::Var(name) => match layout.get(name.as_str()) {
            Some(slot) => CExpr::Var(*slot),
            None => {
                return Err(Error::at(
                    Phase::Type,
                    expr.pos,
                    format!("internal: variable `{name}` missing from layout"),
                ))
            }
        },
        ExprKind::Unary(op, e) => CExpr::Unary(*op, Box::new(lower_inner(e, layout)?)),
        ExprKind::Binary(op, a, b) => CExpr::Binary(
            *op,
            Box::new(lower_inner(a, layout)?),
            Box::new(lower_inner(b, layout)?),
        ),
        ExprKind::Call(name, args) => {
            let mut la = Vec::with_capacity(args.len());
            for a in args {
                la.push(lower_inner(a, layout)?);
            }
            CExpr::Call(name.clone(), la)
        }
        ExprKind::IfElse(c, t, f) => CExpr::IfElse(
            Box::new(lower_inner(c, layout)?),
            Box::new(lower_inner(t, layout)?),
            Box::new(lower_inner(f, layout)?),
        ),
        ExprKind::Cast(e, ty) => CExpr::Cast(Box::new(lower_inner(e, layout)?), ty.clone()),
        ExprKind::Tuple(elems) => {
            let mut le = Vec::with_capacity(elems.len());
            for e in elems {
                le.push(lower_inner(e, layout)?);
            }
            CExpr::Tuple(le)
        }
    })
}

/// The value of a literal with no expected type (casts added by the type
/// checker adapt it afterwards).
fn natural_literal(lit: &Literal) -> Value {
    match lit {
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Int(i) => Value::Int(*i),
        Literal::Double(d) => Value::Double(crate::value::F64(*d)),
        Literal::Str(s) => Value::str(s),
    }
}

/// Evaluate a constant expression to a value, if possible.
fn const_fold(ce: &CExpr) -> Option<Value> {
    if ce.is_const() {
        crate::cexpr::eval(ce, &[]).ok()
    } else {
        None
    }
}

/// Map a `Type` to a conservative "zero" value, used to type-check rows.
pub fn zero_value(ty: &Type) -> Value {
    match ty {
        Type::Bool => Value::Bool(false),
        Type::Int => Value::Int(0),
        Type::Bit(w) => Value::Bit { width: *w, val: 0 },
        Type::Double => Value::Double(crate::value::F64(0.0)),
        Type::Str => Value::str(""),
        Type::Uuid => Value::Uuid(crate::value::Uuid(0)),
        Type::Vec(_) => Value::vec(vec![]),
        Type::Set(_) => Value::set(vec![]),
        Type::Map(_, _) => Value::map(vec![]),
        Type::Tuple(ts) => Value::tuple(ts.iter().map(zero_value).collect()),
        Type::Unknown => Value::Bool(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::typecheck::check;

    fn compile(src: &str) -> (CompiledProgram, Vec<RelationStore>) {
        let prog = parse_program(src).unwrap();
        let checked = check(&prog).unwrap();
        let mut stores: Vec<RelationStore> = prog
            .relations
            .iter()
            .map(|r| RelationStore::new(r.name.clone(), r.arity()))
            .collect();
        let cp = plan(&checked, &mut stores).unwrap();
        (cp, stores)
    }

    #[test]
    fn join_plan_keys() {
        let (cp, stores) = compile(
            "
            input relation Label(n: string, l: bigint)
            input relation Edge(a: string, b: string)
            output relation Out(n: string, l: bigint)
            Out(n2, l) :- Label(n1, l), Edge(n1, n2).
            ",
        );
        let rule = &cp.rules[0];
        assert_eq!(rule.stages.len(), 2);
        match &rule.stages[1] {
            PStage::Atom {
                rel,
                neg,
                key_cols,
                key_srcs,
                binds,
                ..
            } => {
                assert!(!neg);
                assert_eq!(*rel, cp.rel_ids["Edge"]);
                assert_eq!(key_cols, &[0]); // Edge.a joins on n1
                assert_eq!(key_srcs, &[KeySrc::Slot(0)]);
                assert_eq!(binds.len(), 1); // Edge.b binds n2
            }
            other => panic!("unexpected stage {other:?}"),
        }
        // An index on Edge column 0 must have been registered.
        assert!(stores[cp.rel_ids["Edge"]].has_index(&[0]));
    }

    #[test]
    fn literal_in_pattern_becomes_const_key() {
        let (cp, _) = compile(
            "
            input relation Port(id: bit<32>, vlan: bit<12>, tag: string)
            output relation InVlan(port: bit<32>, vlan: bit<12>)
            InVlan(p, v) :- Port(p, v, \"access\").
            ",
        );
        match &cp.rules[0].stages[0] {
            PStage::Atom {
                key_cols, key_srcs, ..
            } => {
                assert_eq!(key_cols, &[2]);
                assert_eq!(key_srcs, &[KeySrc::Const(Value::str("access"))]);
            }
            other => panic!("unexpected stage {other:?}"),
        }
    }

    #[test]
    fn repeated_var_in_atom_is_check() {
        let (cp, _) = compile(
            "
            input relation E(a: bigint, b: bigint)
            output relation Self(a: bigint)
            Self(a) :- E(a, a).
            ",
        );
        match &cp.rules[0].stages[0] {
            PStage::Atom { checks, binds, .. } => {
                assert_eq!(binds.len(), 1);
                assert_eq!(checks, &[(1, 0)]);
            }
            other => panic!("unexpected stage {other:?}"),
        }
    }

    #[test]
    fn facts_planned_as_constants() {
        let (cp, _) = compile(
            "
            output relation R(x: bigint, s: string)
            R(1 + 2, \"a\" ++ \"b\").
            ",
        );
        assert_eq!(cp.facts.len(), 1);
        assert_eq!(cp.facts[0].1, vec![Value::Int(3), Value::str("ab")]);
    }

    #[test]
    fn arrangements_dedup_and_record_users() {
        let (cp, stores) = compile(
            "
            input relation Label(n: string, l: bigint)
            input relation Edge(a: string, b: string)
            output relation O1(n: string, l: bigint)
            output relation O2(n: string, l: bigint)
            O1(n2, l) :- Label(n1, l), Edge(n1, n2).
            O2(n2, l) :- Label(n1, l), Edge(n1, n2).
            ",
        );
        // Both rules probe Edge by column 0 → one shared arrangement
        // with two users.
        let edge = cp.rel_ids["Edge"];
        let specs: Vec<_> = cp.arrangements.iter().filter(|s| s.rel == edge).collect();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].cols, vec![0]);
        assert_eq!(specs[0].users.len(), 2);
        assert!(stores[edge].has_index(&[0]));
    }

    #[test]
    fn drive_plans_probe_arrangements() {
        let (mut cp, mut stores) = compile(
            "
            input relation Edge(a: string, b: string)
            input relation GivenLabel(n: string, l: bigint)
            output relation Label(n: string, l: bigint)
            Label(n, l) :- GivenLabel(n, l).
            Label(b, l) :- Label(a, l), Edge(a, b).
            ",
        );
        let scc: HashSet<RelId> = [cp.rel_ids["Label"]].into_iter().collect();
        build_drive_plans(&mut cp, &[1], &scc, &mut stores);
        let rule = &cp.rules[1];

        // Driving Edge (stage 1) binds a and b; Label(a, l) is left,
        // probed by column 0 = a, not a full scan.
        assert_eq!(rule.drive_plans.from[1], vec![0]);
        assert!(stores[cp.rel_ids["Label"]].has_index(&[0]));

        // Driving Label (stage 0) binds a and l; Edge keyed on column 0.
        assert_eq!(rule.drive_plans.from[0], vec![1]);
        assert!(stores[cp.rel_ids["Edge"]].has_index(&[0]));

        // Re-derivation binds the head slots (b, l); the best first
        // probe is the non-SCC Edge by b (column 1), then Label fully
        // keyed — never a scan proportional to |Label|.
        assert_eq!(rule.drive_plans.rederive, vec![1, 0]);
        assert!(stores[cp.rel_ids["Edge"]].has_index(&[1]));
        assert!(stores[cp.rel_ids["Label"]].has_index(&[0, 1]));
        let users = |rel: &str, cols: &[usize]| {
            let rel = cp.rel_ids[rel];
            let spec = cp
                .arrangements
                .iter()
                .find(|s| s.rel == rel && s.cols == cols);
            spec.unwrap().users.clone()
        };
        assert_eq!(users("Edge", &[1]), vec!["rule 1 rederive".to_string()]);
        assert_eq!(users("Label", &[0]), vec!["rule 1 drive@1".to_string()]);
    }

    #[test]
    fn a_head_with_a_computed_argument_still_rederives_by_its_variables() {
        let (mut cp, mut stores) = compile(
            "
            input relation E(a: bigint, b: bigint)
            output relation R(a: bigint, b: bigint)
            R(a, b + 1) :- R(a, b), E(a, b).
            R(a, b) :- E(a, b).
            ",
        );
        let scc: HashSet<RelId> = [cp.rel_ids["R"]].into_iter().collect();
        build_drive_plans(&mut cp, &[0], &scc, &mut stores);
        // `a` pins slot 0; E by a is the non-SCC probe, then R by (a, b).
        assert_eq!(cp.rules[0].drive_plans.rederive, vec![1, 0]);
        assert!(stores[cp.rel_ids["E"]].has_index(&[0]));
    }

    #[test]
    fn aggregate_collapses_layout() {
        let (cp, _) = compile(
            "
            input relation P(p: bigint, sw: string)
            output relation N(sw: string, n: bigint)
            N(sw, n) :- P(p, sw), var n = count(p) group_by (sw).
            ",
        );
        let rule = &cp.rules[0];
        assert!(rule.has_aggregate);
        // Head exprs refer to the post-aggregate layout: sw=0, n=1.
        assert_eq!(rule.head_exprs, vec![CExpr::Var(0), CExpr::Var(1)]);
    }
}
