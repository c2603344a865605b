//! The incremental engine: compiled program + stores + transactions.
//!
//! An [`Engine`] is built from source text. Clients change *input*
//! relations through [`Transaction`]s; [`Engine::commit`] propagates the
//! change through the strata incrementally and returns the set-level
//! deltas of all *output* relations — the paper's streaming contract
//! ("a stream of updates to input relations ... produces a corresponding
//! stream of updates to the computed output relations", §4.1).

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::ast::RelationRole;
use crate::chain::{process_rule, RuleState};
use crate::error::{Error, Phase, Result};
use crate::plan::{plan, CompiledProgram};
use crate::profile::{AuditConfig, FixpointProbe, OpCatalog, WorkProfile};
use crate::provenance::{QueryCtx, WhyNode, WhyNot};
use crate::recursive::process_recursive_stratum;
use crate::store::{RelId, RelationStore};
use crate::stratify::stratify;
use crate::typecheck::{check, CheckedProgram};
use crate::types::Type;
use crate::value::{Row, Value};
use crate::zset::ZSet;

struct EngineMetrics {
    commits: telemetry::Counter,
    commit_us: telemetry::Histogram,
    input_ops: telemetry::Counter,
    zset_rows: telemetry::Gauge,
    state_bytes: telemetry::Gauge,
}

fn engine_metrics() -> &'static EngineMetrics {
    static M: std::sync::OnceLock<EngineMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let reg = &telemetry::global().registry;
        EngineMetrics {
            commits: reg.counter("ddlog_commits_total", "Committed engine transactions"),
            commit_us: reg.histogram(
                "ddlog_commit_duration_us",
                "Incremental propagation latency per commit (us)",
                &telemetry::LATENCY_BOUNDS_US,
            ),
            input_ops: reg.counter("ddlog_input_ops_total", "Input relation operations applied"),
            zset_rows: reg.gauge("ddlog_zset_rows", "Visible rows across all relation stores"),
            state_bytes: reg.gauge(
                "ddlog_state_bytes",
                "Approximate resident bytes of all per-row engine state: stores \
                 (rows, counts, last-touch stamps) and arrangements",
            ),
        }
    })
}

/// Cached per-operator counter handles (created once per engine, bumped
/// once per commit).
struct OpSeries {
    tuples_in: telemetry::Counter,
    tuples_out: telemetry::Counter,
    wall_ns: telemetry::Counter,
}

fn op_series(catalog: &OpCatalog) -> Vec<OpSeries> {
    let reg = &telemetry::global().registry;
    catalog
        .ops
        .iter()
        .map(|m| {
            let id = m.id.to_string();
            let rule = m.rule.map(|r| r.to_string()).unwrap_or_default();
            let labels: [(&str, &str); 4] = [
                ("op", &id),
                ("kind", m.kind.name()),
                ("rule", &rule),
                ("detail", &m.detail),
            ];
            OpSeries {
                tuples_in: reg.counter_with(
                    "ddlog_op_tuples_in_total",
                    "Tuples consumed per dataflow operator",
                    &labels,
                ),
                tuples_out: reg.counter_with(
                    "ddlog_op_tuples_out_total",
                    "Tuples produced per dataflow operator",
                    &labels,
                ),
                wall_ns: reg.counter_with(
                    "ddlog_op_wall_ns_total",
                    "Wall time per dataflow operator (ns)",
                    &labels,
                ),
            }
        })
        .collect()
}

fn relation_changes_counter(relation: &str) -> telemetry::Counter {
    telemetry::global().registry.counter_with(
        "ddlog_relation_changes_total",
        "Output relation row changes by relation",
        &[("relation", relation)],
    )
}

/// The set-level changes produced by one committed transaction, for every
/// output relation that changed. Rows are paired with +1 (inserted) or −1
/// (deleted) and sorted for deterministic iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxnDelta {
    /// Relation name → sorted (row, ±1) list.
    pub changes: BTreeMap<String, Vec<(Vec<Value>, isize)>>,
}

impl TxnDelta {
    /// True if no output relation changed.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Total number of changed rows across all relations.
    pub fn len(&self) -> usize {
        self.changes.values().map(Vec::len).sum()
    }
}

/// A buffered set of input changes; apply with [`Engine::commit`].
#[derive(Debug, Clone, Default)]
pub struct Transaction {
    ops: Vec<(String, Vec<Value>, bool)>,
}

impl Transaction {
    /// An empty transaction.
    pub fn new() -> Transaction {
        Transaction::default()
    }

    /// Buffer an insertion into an input relation.
    pub fn insert(&mut self, relation: impl Into<String>, row: Vec<Value>) -> &mut Self {
        self.ops.push((relation.into(), row, true));
        self
    }

    /// Buffer a deletion from an input relation.
    pub fn delete(&mut self, relation: impl Into<String>, row: Vec<Value>) -> &mut Self {
        self.ops.push((relation.into(), row, false));
        self
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operations are buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Execution metadata for one stratum.
#[derive(Debug, Clone)]
struct StratumExec {
    recursive: bool,
    rels: Vec<RelId>,
    /// Indices into `compiled.rules`.
    plan_idxs: Vec<usize>,
}

/// A compiled, running incremental Datalog program.
pub struct Engine {
    checked: CheckedProgram,
    compiled: CompiledProgram,
    strata: Vec<StratumExec>,
    stores: Vec<RelationStore>,
    rule_states: Vec<RuleState>,
    /// Set after an evaluation error mid-commit; the engine state may be
    /// inconsistent and all further operations fail.
    poisoned: bool,
    commits: u64,
    /// Stable operator catalog derived from the compiled plan.
    catalog: OpCatalog,
    /// Per-operator telemetry counter handles, parallel to the catalog.
    series: Vec<OpSeries>,
    /// `ddlog_relation_changes_total` handles, looked up the first time
    /// each output relation changes.
    relation_changes: HashMap<String, telemetry::Counter>,
    /// Cumulative work across all commits (and initial fact propagation).
    cumulative: WorkProfile,
    /// Profile of the most recent commit (even one that failed the audit).
    last_profile: Option<WorkProfile>,
    /// When set, every commit is checked against the work budget.
    audit: Option<AuditConfig>,
    /// Causal trace id stamped onto the next commit's flight-recorder
    /// events (consumed per commit; 0 = untraced).
    commit_trace: u64,
    /// Per plan index: whether the rule runs in a recursive stratum
    /// (set semantics; provenance expects no derivation counts there).
    recursive_plans: Vec<bool>,
}

impl Engine {
    /// Parse, type-check, stratify, plan, and initialize an engine from
    /// program source.
    pub fn from_source(src: &str) -> Result<Engine> {
        let program = crate::parser::parse_program(src)?;
        let checked = check(&program)?;
        let strat = stratify(&checked.program)?;

        let mut stores: Vec<RelationStore> = checked
            .program
            .relations
            .iter()
            .map(|r| RelationStore::new(r.name.clone(), r.arity()))
            .collect();
        let mut compiled = plan(&checked, &mut stores)?;

        // Resolve strata to plan indices and relation ids.
        let plan_of_rule: HashMap<usize, usize> = compiled
            .rules
            .iter()
            .enumerate()
            .map(|(pi, r)| (r.rule_index, pi))
            .collect();
        let mut strata = Vec::with_capacity(strat.strata.len());
        for s in &strat.strata {
            let rels: Vec<RelId> = s.relations.iter().map(|n| compiled.rel_ids[n]).collect();
            let plan_idxs: Vec<usize> = s
                .rule_indices
                .iter()
                .filter_map(|ri| plan_of_rule.get(ri).copied())
                .collect();
            if s.recursive {
                for pi in &plan_idxs {
                    if compiled.rules[*pi].has_aggregate {
                        return Err(Error::new(
                            Phase::Stratify,
                            format!(
                                "rule for `{}` uses an aggregate but its head is in a \
                                 recursive stratum; this is unsupported",
                                checked.program.rules[compiled.rules[*pi].rule_index]
                                    .head
                                    .relation
                            ),
                        ));
                    }
                }
            }
            strata.push(StratumExec {
                recursive: s.recursive,
                rels,
                plan_idxs,
            });
        }

        // Order recursive rules per drive context so every probe of the
        // fixpoint hits a maintained arrangement (registering the extra
        // arrangements before any data arrives).
        for s in &strata {
            if s.recursive {
                let scc: HashSet<RelId> = s.rels.iter().copied().collect();
                crate::plan::build_drive_plans(&mut compiled, &s.plan_idxs, &scc, &mut stores);
            }
        }

        let rule_states = compiled.rules.iter().map(RuleState::new).collect();

        let strata_shape: Vec<(bool, Vec<usize>)> = strata
            .iter()
            .map(|s| (s.recursive, s.plan_idxs.clone()))
            .collect();
        let catalog = OpCatalog::build(&compiled, &strata_shape);
        let series = op_series(&catalog);
        let cumulative = WorkProfile::new(catalog.len());

        let mut recursive_plans = vec![false; compiled.rules.len()];
        for s in &strata {
            if s.recursive {
                for pi in &s.plan_idxs {
                    recursive_plans[*pi] = true;
                }
            }
        }

        let mut engine = Engine {
            checked,
            compiled,
            strata,
            stores,
            rule_states,
            poisoned: false,
            commits: 0,
            catalog,
            series,
            relation_changes: HashMap::new(),
            cumulative,
            last_profile: None,
            audit: None,
            commit_trace: 0,
            recursive_plans,
        };

        // Install constant facts and propagate them like a transaction.
        let mut rel_deltas: HashMap<RelId, ZSet<Row>> = HashMap::new();
        let facts = engine.compiled.facts.clone();
        for (rel, row) in facts {
            let row: Row = std::sync::Arc::new(row);
            let sd = engine.stores[rel].apply_derivation_delta(&ZSet::singleton(row, 1));
            rel_deltas.entry(rel).or_default().merge(sd);
        }
        rel_deltas.retain(|_, z| !z.is_empty());
        let mut init_profile = WorkProfile::new(engine.catalog.len());
        let init_out = engine.propagate(&mut rel_deltas, &mut init_profile);
        engine.flush_arrangement_stats(&mut init_profile);
        init_out?;
        engine.cumulative.merge(&init_profile);
        Ok(engine)
    }

    /// The names of all relations, in declaration order.
    pub fn relation_names(&self) -> Vec<&str> {
        self.checked
            .program
            .relations
            .iter()
            .map(|r| r.name.as_str())
            .collect()
    }

    /// The declared column types of a relation.
    pub fn relation_types(&self, relation: &str) -> Option<Vec<Type>> {
        self.checked
            .program
            .relation(relation)
            .map(|d| d.column_types())
    }

    /// Number of committed transactions.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Commit a transaction: apply input changes, propagate incrementally,
    /// return output deltas.
    pub fn commit(&mut self, txn: Transaction) -> Result<TxnDelta> {
        self.commit_profiled(txn).map(|(delta, _)| delta)
    }

    /// Like [`Engine::commit`], but also returns the transaction's
    /// [`WorkProfile`]: per-operator tuples-in/out, peak intermediate
    /// z-set sizes, and wall time.
    pub fn commit_profiled(&mut self, txn: Transaction) -> Result<(TxnDelta, WorkProfile)> {
        if self.poisoned {
            return Err(Error::new(
                Phase::Eval,
                "engine is poisoned by an earlier evaluation error".to_string(),
            ));
        }
        let started = std::time::Instant::now();
        let metrics = engine_metrics();
        metrics.input_ops.add(txn.ops.len() as u64);

        // Normalize ops into per-relation membership deltas. Ops are
        // applied in order against a virtual view, so insert-then-delete
        // of the same row in one transaction is a no-op.
        let mut intents: HashMap<(RelId, Row), (bool, bool)> = HashMap::new(); // (initial, tentative)
        for (rel_name, row_vals, is_insert) in &txn.ops {
            let rel =
                *self.compiled.rel_ids.get(rel_name).ok_or_else(|| {
                    Error::new(Phase::Eval, format!("unknown relation `{rel_name}`"))
                })?;
            let decl = &self.compiled.decls[rel];
            if decl.role != RelationRole::Input {
                return Err(Error::new(
                    Phase::Eval,
                    format!("relation `{rel_name}` is not an input relation"),
                ));
            }
            if row_vals.len() != decl.arity() {
                return Err(Error::new(
                    Phase::Eval,
                    format!(
                        "relation `{rel_name}` has {} columns, row has {}",
                        decl.arity(),
                        row_vals.len()
                    ),
                ));
            }
            for (v, (cname, cty)) in row_vals.iter().zip(&decl.columns) {
                if !v.matches_type(cty) {
                    return Err(Error::new(
                        Phase::Eval,
                        format!(
                            "value {v} for column `{cname}` of `{rel_name}` is not of type {cty}"
                        ),
                    ));
                }
            }
            let row: Row = std::sync::Arc::new(row_vals.clone());
            let key = (rel, row);
            let entry = intents.entry(key.clone()).or_insert_with(|| {
                let present = self.stores[key.0].contains(&key.1);
                (present, present)
            });
            entry.1 = *is_insert;
        }

        // Rows this commit makes visible are stamped (trace, commit) in
        // their store entry as they are applied.
        let trace = std::mem::take(&mut self.commit_trace);
        for store in &mut self.stores {
            store.set_touch((trace, self.commits + 1));
        }

        // Apply the net intents per relation, recording each relation's
        // Distinct operator (derivation-count maintenance).
        let mut profile = WorkProfile::new(self.catalog.len());
        let mut input_deltas: HashMap<RelId, ZSet<Row>> = HashMap::new();
        for ((rel, row), (initial, fin)) in intents {
            if initial != fin {
                let w = if fin { 1 } else { -1 };
                input_deltas.entry(rel).or_default().add(row, w);
            }
        }
        let mut rel_deltas: HashMap<RelId, ZSet<Row>> = HashMap::new();
        for (rel, d) in input_deltas {
            let t0 = std::time::Instant::now();
            let tuples_in = d.len() as u64;
            let sd = self.stores[rel].apply_derivation_delta(&d);
            profile.record(
                self.catalog.distinct_ops[rel],
                tuples_in,
                sd.len() as u64,
                tuples_in.max(sd.len() as u64),
                t0.elapsed().as_nanos() as u64,
            );
            if !sd.is_empty() {
                rel_deltas.insert(rel, sd);
            }
        }
        profile.input_tuples = rel_deltas.values().map(ZSet::len).sum::<usize>() as u64;

        let out = self.propagate(&mut rel_deltas, &mut profile);
        // Drain pending arrangement-maintenance stats into this commit's
        // profile even on error, so they can't leak into the next commit.
        let arrange_maintained = self.flush_arrangement_stats(&mut profile);
        if out.is_err() {
            self.poisoned = true;
        }
        self.commits += 1;
        profile.total_wall_ns = started.elapsed().as_nanos() as u64;
        metrics.commit_us.record_duration(started.elapsed());
        metrics.commits.inc();
        let delta = out?;
        for (rel, rows) in &delta.changes {
            if !self.relation_changes.contains_key(rel) {
                self.relation_changes
                    .insert(rel.clone(), relation_changes_counter(rel));
            }
            self.relation_changes[rel].add(rows.len() as u64);
        }
        metrics
            .zset_rows
            .set(self.stores.iter().map(RelationStore::len).sum::<usize>() as i64);
        metrics.state_bytes.set(self.approx_bytes() as i64);
        for (op, s) in profile.stats.iter().enumerate() {
            if s.invocations == 0 {
                continue;
            }
            self.series[op].tuples_in.add(s.tuples_in);
            self.series[op].tuples_out.add(s.tuples_out);
            self.series[op].wall_ns.add(s.wall_ns);
        }
        self.cumulative.merge(&profile);
        self.last_profile = Some(profile.clone());
        telemetry::catalogue::DDLOG_APPLY.record(
            trace,
            &[
                ("input_tuples", profile.input_tuples),
                ("output_changes", delta.len() as u64),
                ("work_tuples", profile.total_tuples()),
                ("arrange_maintained", arrange_maintained),
                ("wall_ns", profile.total_wall_ns),
            ],
        );
        if let Some(cfg) = self.audit {
            if let Err(msg) = cfg.check(&profile, delta.len() as u64) {
                telemetry::catalogue::DDLOG_AUDIT_TRIP.record_note(
                    trace,
                    &[("work_tuples", profile.total_tuples())],
                    msg.clone(),
                );
                telemetry::failure_signal("audit-trip", &msg);
                return Err(Error::new(Phase::Eval, msg));
            }
        }
        Ok((delta, profile))
    }

    /// Propagate already-applied input deltas through all strata,
    /// recording per-operator work into `profile`.
    fn propagate(
        &mut self,
        rel_deltas: &mut HashMap<RelId, ZSet<Row>>,
        profile: &mut WorkProfile,
    ) -> Result<TxnDelta> {
        for si in 0..self.strata.len() {
            let stratum = self.strata[si].clone();
            if stratum.recursive {
                let rules: Vec<&crate::plan::CompiledRule> = stratum
                    .plan_idxs
                    .iter()
                    .map(|pi| &self.compiled.rules[*pi])
                    .collect();
                let scc: HashSet<RelId> = stratum.rels.iter().copied().collect();
                let mut probe = FixpointProbe::default();
                let t0 = std::time::Instant::now();
                let net = process_recursive_stratum(
                    &rules,
                    &scc,
                    &mut self.stores,
                    rel_deltas,
                    Some(&mut probe),
                )?;
                let wall = t0.elapsed().as_nanos() as u64;
                let out_tuples = net.values().map(ZSet::len).sum::<usize>() as u64;
                if let Some(op) = self.catalog.fixpoint_ops[si] {
                    // tuples_in counts driven frontier rows plus every row
                    // the fixpoint's probes examined — a full scan shows
                    // up here and trips the incrementality audit.
                    profile.record(
                        op,
                        probe.driven + probe.examined,
                        out_tuples,
                        probe.peak,
                        wall,
                    );
                }
                for (rel, z) in net {
                    rel_deltas.entry(rel).or_default().merge(z);
                }
            } else {
                let mut acc: HashMap<RelId, ZSet<Row>> = HashMap::new();
                for pi in &stratum.plan_idxs {
                    let rule = &self.compiled.rules[*pi];
                    let head_delta = process_rule(
                        rule,
                        &mut self.rule_states[*pi],
                        &self.stores,
                        rel_deltas,
                        Some((
                            &self.catalog.rule_ops[*pi],
                            &self.catalog.stage_arrange_ops[*pi],
                            profile,
                        )),
                    )?;
                    if !head_delta.is_empty() {
                        acc.entry(rule.head_rel).or_default().merge(head_delta);
                    }
                }
                for (rel, deriv_delta) in acc {
                    let t0 = std::time::Instant::now();
                    let tuples_in = deriv_delta.len() as u64;
                    let sd = self.stores[rel].apply_derivation_delta(&deriv_delta);
                    profile.record(
                        self.catalog.distinct_ops[rel],
                        tuples_in,
                        sd.len() as u64,
                        tuples_in.max(sd.len() as u64),
                        t0.elapsed().as_nanos() as u64,
                    );
                    if !sd.is_empty() {
                        rel_deltas.entry(rel).or_default().merge(sd);
                    }
                }
            }
        }

        // Collect output deltas.
        let mut changes = BTreeMap::new();
        for (rel, z) in rel_deltas.iter() {
            let decl = &self.compiled.decls[*rel];
            if decl.role != RelationRole::Output || z.is_empty() {
                continue;
            }
            let mut rows: Vec<(Vec<Value>, isize)> =
                z.iter().map(|(r, w)| ((**r).clone(), w)).collect();
            rows.sort();
            changes.insert(decl.name.clone(), rows);
        }
        Ok(TxnDelta { changes })
    }

    /// Drain every store's pending arrangement-maintenance counters into
    /// `profile` under their cataloged `Arrange` operators.
    fn flush_arrangement_stats(&mut self, profile: &mut WorkProfile) -> u64 {
        let mut maintained = 0u64;
        for store in &mut self.stores {
            for (global, s) in store.take_arrangement_stats() {
                let op = self.catalog.arrange_ops[global];
                let st = &mut profile.stats[op];
                st.invocations += s.invocations;
                st.tuples_in += s.tuples;
                st.peak = st.peak.max(s.peak);
                st.wall_ns += s.wall_ns;
                maintained += s.tuples;
            }
        }
        maintained
    }

    /// Arm or disarm the `stale-arrangement` fault injection used by the
    /// differential oracle (`crates/oracle`): while armed, relation
    /// arrangements skip index maintenance on retraction, so probes see
    /// ghost rows and derived state drifts from a from-scratch rebuild.
    pub fn inject_stale_arrangement(&mut self, on: bool) {
        for store in &mut self.stores {
            store.set_stale_retractions(on);
        }
    }

    /// Validate every relation arrangement against an index rebuilt from
    /// scratch over the current visible rows — the arrangement-drift
    /// detector used by tests and the oracle.
    pub fn validate_arrangements(&self) -> Result<()> {
        for store in &self.stores {
            store
                .validate_arrangements()
                .map_err(|m| Error::new(Phase::Eval, m))?;
        }
        Ok(())
    }

    /// The declared `(column name, type)` pairs of a relation; lets
    /// callers (e.g. the `nerpa why` CLI) parse textual row literals.
    pub fn relation_schema(&self, relation: &str) -> Result<Vec<(String, crate::types::Type)>> {
        let rel = self.rel_id(relation)?;
        Ok(self.compiled.decls[rel].columns.clone())
    }

    /// The head arguments of every rule and fact headed at `relation`,
    /// in source order: the value of each constant argument, `None` for
    /// one computed from the rule's body.
    pub fn head_constants(&self, relation: &str) -> Vec<Vec<Option<Value>>> {
        let no_vars = HashMap::new();
        let constant = |e| match crate::plan::lower_expr(e, &no_vars) {
            Ok(crate::cexpr::CExpr::Const(v)) => Some(v),
            _ => None,
        };
        let rules = self.checked.program.rules.iter();
        rules
            .filter(|r| r.head.relation == relation)
            .map(|r| r.head.args.iter().map(constant).collect())
            .collect()
    }

    fn rel_id(&self, relation: &str) -> Result<RelId> {
        self.compiled
            .rel_ids
            .get(relation)
            .copied()
            .ok_or_else(|| Error::new(Phase::Eval, format!("unknown relation `{relation}`")))
    }

    fn check_row_arity(&self, rel: RelId, row: &[Value]) -> Result<()> {
        let decl = &self.compiled.decls[rel];
        if row.len() != decl.arity() {
            return Err(Error::new(
                Phase::Eval,
                format!(
                    "relation `{}` has {} columns, row has {}",
                    decl.name,
                    decl.arity(),
                    row.len()
                ),
            ));
        }
        Ok(())
    }

    /// Render a source rule as `Head :- body, ...` (relation names plus
    /// markers for non-atom literals).
    fn render_rule(&self, rule_index: usize) -> String {
        use crate::ast::BodyItem;
        let rule = &self.checked.program.rules[rule_index];
        let parts: Vec<String> = rule
            .body
            .iter()
            .map(|item| match item {
                BodyItem::Atom(a) => a.relation.clone(),
                BodyItem::Not(a) => format!("not {}", a.relation),
                BodyItem::Cond(_) => "<filter>".to_string(),
                BodyItem::Assign { var, .. } => format!("var {var} = ..."),
                BodyItem::FlatMap { var, .. } => format!("var {var} = FlatMap(...)"),
                BodyItem::Aggregate {
                    out_var, func, by, ..
                } => format!("var {out_var} = {func:?}(...) group_by ({})", by.join(", "))
                    .to_lowercase(),
            })
            .collect();
        format!("{} :- {}", rule.head.relation, parts.join(", "))
    }

    fn with_query_ctx<T>(&self, f: impl FnOnce(&QueryCtx<'_>) -> Result<T>) -> Result<T> {
        let rule_text = |ri: usize| self.render_rule(ri);
        let ctx = QueryCtx {
            compiled: &self.compiled,
            stores: &self.stores,
            rule_states: &self.rule_states,
            recursive_plans: &self.recursive_plans,
            rule_text: &rule_text,
            examined: Default::default(),
            truncations: Default::default(),
        };
        f(&ctx)
    }

    /// Why is `row` in `relation`? Returns the derivation tree rooted
    /// at base (input-relation) facts: each node cites the rule and the
    /// supporting rows that produced it, annotated with the flight-
    /// recorder trace that last touched each fact. Answered on demand
    /// by a bounded search over the live arrangements (nothing is
    /// recorded per commit; see [`crate::provenance`]), so it works on
    /// every engine. The row must be visible (otherwise ask
    /// [`Engine::why_not`]).
    pub fn why(&self, relation: &str, row: Vec<Value>) -> Result<WhyNode> {
        let rel = self.rel_id(relation)?;
        self.check_row_arity(rel, &row)?;
        let row: Row = std::sync::Arc::new(row);
        if !self.stores[rel].contains(&row) {
            return Err(Error::new(
                Phase::Eval,
                format!("`{relation}` does not contain that row — ask why_not instead"),
            ));
        }
        self.with_query_ctx(|ctx| crate::provenance::why(ctx, rel, &row))
    }

    /// Why is `row` *not* in `relation`? Reports, for every candidate
    /// rule with this head, the deepest failing literal that blocks a
    /// derivation — the other view of the search behind
    /// [`Engine::why`].
    pub fn why_not(&self, relation: &str, row: Vec<Value>) -> Result<WhyNot> {
        let rel = self.rel_id(relation)?;
        self.check_row_arity(rel, &row)?;
        let row: Row = std::sync::Arc::new(row);
        self.with_query_ctx(|ctx| crate::provenance::why_not(ctx, rel, &row))
    }

    /// The `(trace, commit)` that last made `row` visible (`None` when
    /// it is not). Rows installed by declared facts carry `(0, 0)`.
    pub fn last_touch(&self, relation: &str, row: &[Value]) -> Result<Option<(u64, u64)>> {
        let rel = self.rel_id(relation)?;
        self.check_row_arity(rel, row)?;
        let row: Row = std::sync::Arc::new(row.to_vec());
        Ok(self.stores[rel].last_touch(&row))
    }

    /// Check the provenance search against the stores: every visible
    /// derived row has a derivation, and for non-recursive relations
    /// the search finds exactly the store's derivation count — two
    /// independent computations of the same number. Walks the whole
    /// state; a test/debug aid like [`Engine::validate_arrangements`].
    pub fn validate_provenance(&self) -> Result<()> {
        self.with_query_ctx(crate::provenance::validate)
    }

    /// The `/why` exposition document: visible derived rows per
    /// relation plus the search budget, as deterministic JSON.
    /// O(#relations).
    pub fn provenance_summary_json(&self) -> String {
        let commits = self.commits;
        self.with_query_ctx(|ctx| Ok(crate::provenance::summary_json(ctx, commits)))
            .unwrap_or_default()
    }

    /// True when `row` is visible in `relation`.
    pub fn contains(&self, relation: &str, row: &[Value]) -> Result<bool> {
        let rel = self.rel_id(relation)?;
        self.check_row_arity(rel, row)?;
        Ok(self.stores[rel].contains(&std::sync::Arc::new(row.to_vec())))
    }

    /// The current contents of any relation, sorted.
    pub fn dump(&self, relation: &str) -> Result<Vec<Vec<Value>>> {
        let rel = self.rel_id(relation)?;
        let mut rows: Vec<Vec<Value>> = self.stores[rel].rows().map(|r| (**r).clone()).collect();
        rows.sort();
        Ok(rows)
    }

    /// Every stored row of a relation with its derivation count, sorted
    /// by row. Counts are internal bookkeeping — a healthy engine holds
    /// only positive counts — so this exists for invariant checkers
    /// (`crates/oracle`) rather than for normal clients.
    pub fn dump_weights(&self, relation: &str) -> Result<Vec<(Vec<Value>, isize)>> {
        let rel = self.rel_id(relation)?;
        let mut rows: Vec<(Vec<Value>, isize)> = self.stores[rel]
            .rows_with_counts()
            .map(|(r, c)| ((**r).clone(), c))
            .collect();
        rows.sort();
        Ok(rows)
    }

    /// Number of visible rows in a relation.
    pub fn relation_len(&self, relation: &str) -> Result<usize> {
        let rel = self.rel_id(relation)?;
        Ok(self.stores[rel].len())
    }

    /// Approximate resident bytes of all per-row engine state — stores
    /// (rows, derivation counts, last-touch stamps) and arrangements —
    /// the "memory-intensive data indexing" the paper's §2.2 worst case
    /// measures. Cheap: per-store byte counts are maintained
    /// incrementally, so this is O(#relations + #rules), not O(state).
    pub fn approx_bytes(&self) -> usize {
        let stores: usize = self.stores.iter().map(RelationStore::approx_bytes).sum();
        let arrangements: usize = self.rule_states.iter().map(RuleState::approx_bytes).sum();
        stores + arrangements
    }

    /// Recompute [`Engine::approx_bytes`] by walking the full state.
    /// Test/debug aid validating the incremental accounting.
    pub fn approx_bytes_recompute(&self) -> usize {
        let stores: usize = self
            .stores
            .iter()
            .map(RelationStore::approx_bytes_recompute)
            .sum();
        let arrangements: usize = self
            .rule_states
            .iter()
            .map(RuleState::approx_bytes_recompute)
            .sum();
        stores + arrangements
    }

    /// The engine's operator catalog (stable ids into every
    /// [`WorkProfile`] it produces).
    pub fn op_catalog(&self) -> &OpCatalog {
        &self.catalog
    }

    /// The profile of the most recent commit, if any. Present even when
    /// that commit failed the incrementality audit.
    pub fn last_profile(&self) -> Option<&WorkProfile> {
        self.last_profile.as_ref()
    }

    /// Cumulative per-operator work across the engine's whole history
    /// (including initial fact propagation).
    pub fn cumulative_profile(&self) -> &WorkProfile {
        &self.cumulative
    }

    /// Enable (or disable, with `None`) the incrementality audit: after
    /// each commit the total tuples processed are checked against
    /// `slack + ratio × (|input delta| + |output delta|)`. A violating
    /// commit returns an error — its state changes stand (the engine is
    /// *not* poisoned; the bound was exceeded, not correctness).
    pub fn set_audit(&mut self, cfg: Option<AuditConfig>) {
        self.audit = cfg;
    }

    /// Stamp the next commit's flight-recorder events with `trace` (the
    /// causal id minted at the OVSDB commit). Consumed by that commit;
    /// the engine reverts to untraced (0) afterwards.
    pub fn set_commit_trace(&mut self, trace: u64) {
        self.commit_trace = trace;
    }

    /// Render the compiled plan with cumulative per-operator costs as
    /// human-readable text: one block per rule, then the per-relation
    /// distinct operators and recursive fixpoints.
    pub fn explain_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "dataflow plan: {} operators, {} commits, ~{} bytes resident",
            self.catalog.len(),
            self.commits,
            self.approx_bytes()
        );
        let fmt_op = |out: &mut String, id: usize| {
            let m = &self.catalog.ops[id];
            let s = &self.cumulative.stats[id];
            let _ = writeln!(
                out,
                "  [{:3}] {:9} {:32} inv={} in={} out={} peak={} wall_us={}",
                m.id,
                m.kind.name(),
                m.detail,
                s.invocations,
                s.tuples_in,
                s.tuples_out,
                s.peak,
                s.wall_ns / 1_000
            );
        };
        for (pi, rule) in self.compiled.rules.iter().enumerate() {
            let head = &self.compiled.decls[rule.head_rel].name;
            let body: Vec<&str> = rule
                .body_rels
                .iter()
                .map(|r| self.compiled.decls[*r].name.as_str())
                .collect();
            let _ = writeln!(
                out,
                "rule {}: {} :- {}",
                rule.rule_index,
                head,
                body.join(", ")
            );
            if self.catalog.rule_ops[pi].is_empty() {
                let _ = writeln!(out, "  (recursive stratum; see fixpoint operators)");
            }
            for id in &self.catalog.rule_ops[pi] {
                fmt_op(&mut out, *id);
            }
            for id in self.catalog.stage_arrange_ops[pi].iter().flatten() {
                fmt_op(&mut out, *id);
            }
        }
        let _ = writeln!(out, "distinct (derivation-count maintenance):");
        for id in &self.catalog.distinct_ops {
            fmt_op(&mut out, *id);
        }
        if !self.catalog.arrange_ops.is_empty() {
            let _ = writeln!(out, "relation arrangements (shared indexes):");
            for id in &self.catalog.arrange_ops {
                fmt_op(&mut out, *id);
            }
        }
        let fixpoints: Vec<usize> = self
            .catalog
            .fixpoint_ops
            .iter()
            .flatten()
            .copied()
            .collect();
        if !fixpoints.is_empty() {
            let _ = writeln!(out, "recursive fixpoints:");
            for id in fixpoints {
                fmt_op(&mut out, id);
            }
        }
        out
    }

    /// Render the compiled plan with cumulative per-operator costs as a
    /// deterministic JSON document (the `/dataflow` exposition).
    pub fn explain_json(&self) -> String {
        use std::fmt::Write as _;
        let js = telemetry::metrics::json_string;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"nerpa.dataflow.v1\",\"commits\":{},\"state_bytes\":{},\
             \"total_tuples\":{},\"total_wall_ns\":{},\"ops\":[",
            self.commits,
            self.approx_bytes(),
            self.cumulative.total_tuples(),
            self.cumulative.total_wall_ns
        );
        for (i, m) in self.catalog.ops.iter().enumerate() {
            let s = &self.cumulative.stats[i];
            if i > 0 {
                out.push(',');
            }
            let rule = m
                .rule
                .map(|r| r.to_string())
                .unwrap_or_else(|| "null".to_string());
            let stage = m
                .stage
                .map(|s| s.to_string())
                .unwrap_or_else(|| "null".to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"kind\":{},\"rule\":{},\"stage\":{},\"detail\":{},\
                 \"invocations\":{},\"tuples_in\":{},\"tuples_out\":{},\"peak\":{},\
                 \"wall_ns\":{}}}",
                m.id,
                js(m.kind.name()),
                rule,
                stage,
                js(&m.detail),
                s.invocations,
                s.tuples_in,
                s.tuples_out,
                s.peak,
                s.wall_ns
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> Value {
        Value::str(v)
    }
    fn i(v: i128) -> Value {
        Value::Int(v)
    }

    const LABEL_PROG: &str = "
        input relation GivenLabel(n: string, l: bigint)
        input relation Edge(a: string, b: string)
        output relation Label(n: string, l: bigint)
        Label(n1, label) :- GivenLabel(n1, label).
        Label(n2, label) :- Label(n1, label), Edge(n1, n2).
    ";

    #[test]
    fn paper_reachability_example() {
        let mut e = Engine::from_source(LABEL_PROG).unwrap();
        let mut t = Transaction::new();
        t.insert("GivenLabel", vec![s("a"), i(1)]);
        t.insert("Edge", vec![s("a"), s("b")]);
        t.insert("Edge", vec![s("b"), s("c")]);
        let d = e.commit(t).unwrap();
        assert_eq!(d.changes["Label"].len(), 3);
        assert_eq!(
            e.dump("Label").unwrap(),
            vec![vec![s("a"), i(1)], vec![s("b"), i(1)], vec![s("c"), i(1)],]
        );

        // Deleting the middle edge retracts downstream labels only.
        let mut t = Transaction::new();
        t.delete("Edge", vec![s("a"), s("b")]);
        let d = e.commit(t).unwrap();
        assert_eq!(
            d.changes["Label"],
            vec![(vec![s("b"), i(1)], -1), (vec![s("c"), i(1)], -1),]
        );
    }

    #[test]
    fn alternative_derivation_survives_deletion() {
        let mut e = Engine::from_source(LABEL_PROG).unwrap();
        let mut t = Transaction::new();
        t.insert("GivenLabel", vec![s("a"), i(1)]);
        t.insert("Edge", vec![s("a"), s("b")]);
        t.insert("Edge", vec![s("a"), s("c")]);
        t.insert("Edge", vec![s("c"), s("b")]);
        e.commit(t).unwrap();
        // b reachable via a→b and a→c→b. Deleting a→b keeps the label.
        let mut t = Transaction::new();
        t.delete("Edge", vec![s("a"), s("b")]);
        let d = e.commit(t).unwrap();
        assert!(d.is_empty(), "label must survive: {d:?}");
        assert_eq!(e.dump("Label").unwrap().len(), 3);
    }

    #[test]
    fn cycle_deletion() {
        // A cycle reachable from the root: deleting the entry edge must
        // retract the whole cycle (the classic DRed trap).
        let mut e = Engine::from_source(LABEL_PROG).unwrap();
        let mut t = Transaction::new();
        t.insert("GivenLabel", vec![s("r"), i(7)]);
        t.insert("Edge", vec![s("r"), s("x")]);
        t.insert("Edge", vec![s("x"), s("y")]);
        t.insert("Edge", vec![s("y"), s("x")]);
        e.commit(t).unwrap();
        assert_eq!(e.dump("Label").unwrap().len(), 3);

        let mut t = Transaction::new();
        t.delete("Edge", vec![s("r"), s("x")]);
        e.commit(t).unwrap();
        // x and y support each other in the cycle but have no external
        // derivation left; both must go.
        assert_eq!(e.dump("Label").unwrap(), vec![vec![s("r"), i(7)]]);
    }

    #[test]
    fn insert_then_delete_is_noop() {
        let mut e = Engine::from_source(LABEL_PROG).unwrap();
        let mut t = Transaction::new();
        t.insert("GivenLabel", vec![s("a"), i(1)]);
        t.delete("GivenLabel", vec![s("a"), i(1)]);
        let d = e.commit(t).unwrap();
        assert!(d.is_empty());
        assert_eq!(e.relation_len("Label").unwrap(), 0);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut e = Engine::from_source(LABEL_PROG).unwrap();
        let mut t = Transaction::new();
        t.insert("GivenLabel", vec![s("a"), i(1)]);
        e.commit(t).unwrap();
        let mut t = Transaction::new();
        t.insert("GivenLabel", vec![s("a"), i(1)]);
        let d = e.commit(t).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn type_errors_on_commit() {
        let mut e = Engine::from_source(LABEL_PROG).unwrap();
        let mut t = Transaction::new();
        t.insert("GivenLabel", vec![i(1), i(1)]); // wrong type
        assert!(e.commit(t).is_err());
        let mut t = Transaction::new();
        t.insert("GivenLabel", vec![s("a")]); // wrong arity
        assert!(e.commit(t).is_err());
        let mut t = Transaction::new();
        t.insert("Label", vec![s("a"), i(1)]); // not an input
        assert!(e.commit(t).is_err());
        let mut t = Transaction::new();
        t.insert("NoSuch", vec![]);
        assert!(e.commit(t).is_err());
    }

    #[test]
    fn facts_propagate_at_init() {
        let e = Engine::from_source(
            "
            output relation R(x: bigint)
            relation S(x: bigint)
            S(10).
            R(x + 1) :- S(x).
            ",
        )
        .unwrap();
        assert_eq!(e.dump("R").unwrap(), vec![vec![i(11)]]);
    }

    #[test]
    fn negation_incremental() {
        let mut e = Engine::from_source(
            "
            input relation S(x: bigint)
            input relation Blocked(x: bigint)
            output relation R(x: bigint)
            R(x) :- S(x), not Blocked(x).
            ",
        )
        .unwrap();
        let mut t = Transaction::new();
        t.insert("S", vec![i(1)]);
        t.insert("S", vec![i(2)]);
        let d = e.commit(t).unwrap();
        assert_eq!(d.changes["R"].len(), 2);

        // Blocking 1 retracts it.
        let mut t = Transaction::new();
        t.insert("Blocked", vec![i(1)]);
        let d = e.commit(t).unwrap();
        assert_eq!(d.changes["R"], vec![(vec![i(1)], -1)]);

        // Unblocking restores it.
        let mut t = Transaction::new();
        t.delete("Blocked", vec![i(1)]);
        let d = e.commit(t).unwrap();
        assert_eq!(d.changes["R"], vec![(vec![i(1)], 1)]);
    }

    #[test]
    fn aggregation_incremental() {
        let mut e = Engine::from_source(
            "
            input relation P(p: bigint, sw: string)
            output relation N(sw: string, n: bigint)
            N(sw, n) :- P(p, sw), var n = count(p) group_by (sw).
            ",
        )
        .unwrap();
        let mut t = Transaction::new();
        t.insert("P", vec![i(1), s("a")]);
        t.insert("P", vec![i(2), s("a")]);
        t.insert("P", vec![i(3), s("b")]);
        let d = e.commit(t).unwrap();
        assert_eq!(
            d.changes["N"],
            vec![(vec![s("a"), i(2)], 1), (vec![s("b"), i(1)], 1),]
        );

        let mut t = Transaction::new();
        t.delete("P", vec![i(2), s("a")]);
        let d = e.commit(t).unwrap();
        assert_eq!(
            d.changes["N"],
            vec![(vec![s("a"), i(1)], 1), (vec![s("a"), i(2)], -1),]
        );

        // Deleting the last port of a switch removes its row entirely.
        let mut t = Transaction::new();
        t.delete("P", vec![i(3), s("b")]);
        let d = e.commit(t).unwrap();
        assert_eq!(d.changes["N"], vec![(vec![s("b"), i(1)], -1)]);
    }

    #[test]
    fn flatmap_incremental() {
        let mut e = Engine::from_source(
            "
            input relation Trunk(port: bit<32>, vlans: Vec<bit<12>>)
            output relation PortVlan(port: bit<32>, vlan: bit<12>)
            PortVlan(p, v) :- Trunk(p, vs), var v = FlatMap(vs).
            ",
        )
        .unwrap();
        let vlans = Value::vec(vec![Value::bit(12, 10), Value::bit(12, 20)]);
        let mut t = Transaction::new();
        t.insert("Trunk", vec![Value::bit(32, 1), vlans.clone()]);
        let d = e.commit(t).unwrap();
        assert_eq!(d.changes["PortVlan"].len(), 2);

        let mut t = Transaction::new();
        t.delete("Trunk", vec![Value::bit(32, 1), vlans]);
        let d = e.commit(t).unwrap();
        assert_eq!(d.changes["PortVlan"].len(), 2);
        assert!(d.changes["PortVlan"].iter().all(|(_, w)| *w == -1));
        assert_eq!(e.relation_len("PortVlan").unwrap(), 0);
    }

    #[test]
    fn join_three_way_incremental() {
        let mut e = Engine::from_source(
            "
            input relation A(x: bigint, y: bigint)
            input relation B(y: bigint, z: bigint)
            input relation C(z: bigint, w: bigint)
            output relation R(x: bigint, w: bigint)
            R(x, w) :- A(x, y), B(y, z), C(z, w).
            ",
        )
        .unwrap();
        let mut t = Transaction::new();
        t.insert("A", vec![i(1), i(2)]);
        t.insert("B", vec![i(2), i(3)]);
        e.commit(t).unwrap();
        assert_eq!(e.relation_len("R").unwrap(), 0);

        // Completing the chain from the far end exercises the L_old ⋈ δR
        // path through two stages.
        let mut t = Transaction::new();
        t.insert("C", vec![i(3), i(4)]);
        let d = e.commit(t).unwrap();
        assert_eq!(d.changes["R"], vec![(vec![i(1), i(4)], 1)]);

        let mut t = Transaction::new();
        t.delete("B", vec![i(2), i(3)]);
        let d = e.commit(t).unwrap();
        assert_eq!(d.changes["R"], vec![(vec![i(1), i(4)], -1)]);
    }

    #[test]
    fn poisoning_on_eval_error() {
        let mut e = Engine::from_source(
            "
            input relation S(x: bigint)
            output relation R(y: bigint)
            R(10 / x) :- S(x).
            ",
        )
        .unwrap();
        let mut t = Transaction::new();
        t.insert("S", vec![i(0)]);
        assert!(e.commit(t).is_err());
        let mut t = Transaction::new();
        t.insert("S", vec![i(5)]);
        assert!(e.commit(t).is_err(), "poisoned engine must refuse work");
    }

    #[test]
    fn mutual_recursion() {
        let mut e = Engine::from_source(
            "
            input relation E(a: bigint, b: bigint)
            input relation Start(a: bigint)
            relation Odd(a: bigint)
            output relation Even(a: bigint)
            Even(a) :- Start(a).
            Odd(b) :- Even(a), E(a, b).
            Even(b) :- Odd(a), E(a, b).
            ",
        )
        .unwrap();
        let mut t = Transaction::new();
        t.insert("Start", vec![i(0)]);
        for k in 0..4 {
            t.insert("E", vec![i(k), i(k + 1)]);
        }
        e.commit(t).unwrap();
        assert_eq!(
            e.dump("Even").unwrap(),
            vec![vec![i(0)], vec![i(2)], vec![i(4)]]
        );

        let mut t = Transaction::new();
        t.delete("E", vec![i(1), i(2)]);
        e.commit(t).unwrap();
        assert_eq!(e.dump("Even").unwrap(), vec![vec![i(0)]]);
    }
}
