//! Dataflow profiling: stable operator ids and per-commit work accounting.
//!
//! The paper's headline scalability claim (§2, Fig. 3) is that the
//! incremental control plane does work proportional to the *size of the
//! change*, not the size of the network. This module makes that claim
//! observable and checkable: every plan operator gets a stable
//! [`OpId`], each [`crate::engine::Engine`] commit fills a
//! [`WorkProfile`] with tuples-in / tuples-out / peak intermediate
//! z-set size / wall time per operator, and an optional
//! [`AuditConfig`] turns "work is O(|input delta|)" into an enforced
//! invariant (differential-dataflow-style record counting per operator
//! per epoch).

use crate::plan::{CompiledProgram, PStage};
use crate::store::RelId;

/// Stable identifier of one dataflow operator, dense from zero within an
/// engine. Ids are assigned deterministically from the compiled plan, so
/// the same program text always yields the same catalog.
pub type OpId = usize;

/// The kind of a dataflow operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Stage 0 of a rule: map a relation delta to bindings.
    Scan,
    /// A positive atom at stage > 0: bilinear delta join.
    Join,
    /// A negated atom at stage > 0: affected-key antijoin.
    Antijoin,
    /// A boolean condition over the bindings.
    Filter,
    /// `var x = expr`: append one computed slot.
    Map,
    /// `var x = FlatMap(e)`: append one slot per collection element.
    FlatMap,
    /// Group-and-aggregate over affected keys.
    Aggregate,
    /// Per-relation derivation-count maintenance (set-level distinct).
    Distinct,
    /// Maintenance of a keyed arrangement (shared relation index or a
    /// join stage's binding arrangement) — the index-upkeep side of the
    /// work a probe-based evaluator does.
    Arrange,
    /// A recursive stratum's semi-naive / delete–re-derive fixpoint.
    Fixpoint,
}

impl OpKind {
    /// Lower-case stable name, used in series labels and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Scan => "scan",
            OpKind::Join => "join",
            OpKind::Antijoin => "antijoin",
            OpKind::Filter => "filter",
            OpKind::Map => "map",
            OpKind::FlatMap => "flatmap",
            OpKind::Aggregate => "aggregate",
            OpKind::Distinct => "distinct",
            OpKind::Arrange => "arrange",
            OpKind::Fixpoint => "fixpoint",
        }
    }
}

/// Static metadata of one operator.
#[derive(Debug, Clone)]
pub struct OpMeta {
    /// The operator's id (== its index in [`OpCatalog::ops`]).
    pub id: OpId,
    /// What the operator does.
    pub kind: OpKind,
    /// Source rule index (into the program's rules) for per-stage
    /// operators; `None` for Distinct and Fixpoint operators.
    pub rule: Option<usize>,
    /// Stage index within the rule's pipeline, when applicable.
    pub stage: Option<usize>,
    /// Human-readable description (relation names, group keys, …).
    pub detail: String,
}

/// The deterministic operator catalog of one engine.
///
/// Per-stage operators exist only for rules evaluated by the
/// incremental chain ([`crate::chain`]); rules inside a recursive
/// stratum are evaluated by driven search and are accounted to that
/// stratum's single [`OpKind::Fixpoint`] operator instead.
#[derive(Debug, Clone, Default)]
pub struct OpCatalog {
    /// All operators, indexed by [`OpId`].
    pub ops: Vec<OpMeta>,
    /// Plan index → operator ids parallel to the rule's stages. Empty
    /// for rules that live in a recursive stratum.
    pub rule_ops: Vec<Vec<OpId>>,
    /// Relation id → its Distinct operator.
    pub distinct_ops: Vec<OpId>,
    /// Plan index → per-stage binding-arrangement maintenance operators
    /// (parallel to the rule's stages; `Some` for join/antijoin stages,
    /// which maintain an arrangement of their input bindings). Empty for
    /// rules in a recursive stratum.
    pub stage_arrange_ops: Vec<Vec<Option<OpId>>>,
    /// Arrangement catalog id → its Arrange operator (maintenance of the
    /// shared relation indexes, parallel to
    /// [`crate::plan::CompiledProgram::arrangements`]).
    pub arrange_ops: Vec<OpId>,
    /// Stratum index → Fixpoint operator (for recursive strata).
    pub fixpoint_ops: Vec<Option<OpId>>,
}

impl OpCatalog {
    /// Build the catalog for a compiled program.
    ///
    /// `strata` lists, per stratum, whether it is recursive and which
    /// plan indices it executes (the engine's execution schedule).
    pub fn build(compiled: &CompiledProgram, strata: &[(bool, Vec<usize>)]) -> OpCatalog {
        let rel_name = |rel: RelId| compiled.decls[rel].name.as_str();
        // Arrangement keys by declared column *name*, so `nerpa prof
        // --explain` reads `Port by (id)` rather than `Port by [1]`.
        let key_names = |rel: RelId, cols: &[usize]| -> String {
            cols.iter()
                .map(|c| {
                    compiled.decls[rel]
                        .columns
                        .get(*c)
                        .map(|(n, _)| n.as_str())
                        .unwrap_or("?")
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut cat = OpCatalog {
            rule_ops: vec![Vec::new(); compiled.rules.len()],
            stage_arrange_ops: vec![Vec::new(); compiled.rules.len()],
            ..OpCatalog::default()
        };
        let mut recursive_plans = vec![false; compiled.rules.len()];
        for (recursive, plan_idxs) in strata {
            if *recursive {
                for pi in plan_idxs {
                    recursive_plans[*pi] = true;
                }
            }
        }
        for (pi, rule) in compiled.rules.iter().enumerate() {
            if recursive_plans[pi] {
                continue;
            }
            for (si, stage) in rule.stages.iter().enumerate() {
                let (kind, detail) = match stage {
                    PStage::Atom { rel, neg, .. } if si == 0 => {
                        debug_assert!(!neg);
                        (OpKind::Scan, rel_name(*rel).to_string())
                    }
                    PStage::Atom {
                        rel, neg, key_cols, ..
                    } => {
                        let kind = if *neg { OpKind::Antijoin } else { OpKind::Join };
                        (
                            kind,
                            format!("{} on ({})", rel_name(*rel), key_names(*rel, key_cols)),
                        )
                    }
                    PStage::Filter { .. } => (OpKind::Filter, String::new()),
                    PStage::Assign { slot, .. } => (OpKind::Map, format!("slot {slot}")),
                    PStage::FlatMap { slot, .. } => (OpKind::FlatMap, format!("slot {slot}")),
                    PStage::Aggregate {
                        group_slots, func, ..
                    } => (
                        OpKind::Aggregate,
                        format!("{func:?} group_by {group_slots:?}").to_lowercase(),
                    ),
                };
                let id = cat.ops.len();
                cat.ops.push(OpMeta {
                    id,
                    kind,
                    rule: Some(rule.rule_index),
                    stage: Some(si),
                    detail,
                });
                cat.rule_ops[pi].push(id);
            }
            // Binding-arrangement maintenance per join/antijoin stage:
            // chain.rs arranges each such stage's input bindings so later
            // commits can probe them with δR. That upkeep is work the
            // probe itself never sees, so it gets its own operator.
            for (si, stage) in rule.stages.iter().enumerate() {
                let op = match stage {
                    PStage::Atom { rel, key_cols, .. } if si > 0 => {
                        let id = cat.ops.len();
                        cat.ops.push(OpMeta {
                            id,
                            kind: OpKind::Arrange,
                            rule: Some(rule.rule_index),
                            stage: Some(si),
                            detail: format!(
                                "bindings for {} on ({})",
                                rel_name(*rel),
                                key_names(*rel, key_cols)
                            ),
                        });
                        Some(id)
                    }
                    _ => None,
                };
                cat.stage_arrange_ops[pi].push(op);
            }
        }
        for rel in 0..compiled.decls.len() {
            let id = cat.ops.len();
            cat.ops.push(OpMeta {
                id,
                kind: OpKind::Distinct,
                rule: None,
                stage: None,
                detail: rel_name(rel).to_string(),
            });
            cat.distinct_ops.push(id);
        }
        for spec in &compiled.arrangements {
            let id = cat.ops.len();
            cat.ops.push(OpMeta {
                id,
                kind: OpKind::Arrange,
                rule: None,
                stage: None,
                detail: format!(
                    "{} by ({}) ({} user{})",
                    rel_name(spec.rel),
                    key_names(spec.rel, &spec.cols),
                    spec.users.len(),
                    if spec.users.len() == 1 { "" } else { "s" }
                ),
            });
            cat.arrange_ops.push(id);
        }
        for (si, (recursive, plan_idxs)) in strata.iter().enumerate() {
            if !*recursive {
                cat.fixpoint_ops.push(None);
                continue;
            }
            let mut heads: Vec<&str> = plan_idxs
                .iter()
                .map(|pi| rel_name(compiled.rules[*pi].head_rel))
                .collect();
            heads.sort_unstable();
            heads.dedup();
            let id = cat.ops.len();
            cat.ops.push(OpMeta {
                id,
                kind: OpKind::Fixpoint,
                rule: None,
                stage: None,
                detail: format!("stratum {si}: {}", heads.join(", ")),
            });
            cat.fixpoint_ops.push(Some(id));
        }
        cat
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the catalog is empty (a program with no relations).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Accumulated per-operator work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Times the operator ran (once per commit that reached it).
    pub invocations: u64,
    /// Tuples consumed (incoming binding/relation delta rows).
    pub tuples_in: u64,
    /// Tuples produced (outgoing delta rows).
    pub tuples_out: u64,
    /// Peak intermediate z-set size observed in a single run.
    pub peak: u64,
    /// Wall time spent inside the operator, nanoseconds.
    pub wall_ns: u64,
}

impl OpStats {
    /// Fold one operator run into the accumulator.
    pub fn absorb(&mut self, tuples_in: u64, tuples_out: u64, peak: u64, wall_ns: u64) {
        self.invocations += 1;
        self.tuples_in += tuples_in;
        self.tuples_out += tuples_out;
        self.peak = self.peak.max(peak);
        self.wall_ns += wall_ns;
    }

    /// Merge another accumulator (for cumulative cross-commit stats).
    pub fn merge(&mut self, other: &OpStats) {
        self.invocations += other.invocations;
        self.tuples_in += other.tuples_in;
        self.tuples_out += other.tuples_out;
        self.peak = self.peak.max(other.peak);
        self.wall_ns += other.wall_ns;
    }

    /// Total tuples touched (in + out) — the audit's work unit.
    pub fn tuples(&self) -> u64 {
        self.tuples_in + self.tuples_out
    }
}

/// The work profile of one committed transaction (or, via
/// [`crate::engine::Engine::cumulative_profile`], of an engine's whole
/// history): per-operator [`OpStats`] plus commit-level totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkProfile {
    /// Per-operator stats, dense by [`OpId`].
    pub stats: Vec<OpStats>,
    /// Set-level input delta size (rows that actually changed).
    pub input_tuples: u64,
    /// Wall time of the whole commit, nanoseconds.
    pub total_wall_ns: u64,
}

impl WorkProfile {
    /// An all-zero profile sized for `n_ops` operators.
    pub fn new(n_ops: usize) -> WorkProfile {
        WorkProfile {
            stats: vec![OpStats::default(); n_ops],
            input_tuples: 0,
            total_wall_ns: 0,
        }
    }

    /// Record one operator run.
    pub fn record(&mut self, op: OpId, tuples_in: u64, tuples_out: u64, peak: u64, wall_ns: u64) {
        self.stats[op].absorb(tuples_in, tuples_out, peak, wall_ns);
    }

    /// Merge another profile of the same shape.
    pub fn merge(&mut self, other: &WorkProfile) {
        if self.stats.len() < other.stats.len() {
            self.stats.resize(other.stats.len(), OpStats::default());
        }
        for (s, o) in self.stats.iter_mut().zip(&other.stats) {
            s.merge(o);
        }
        self.input_tuples += other.input_tuples;
        self.total_wall_ns += other.total_wall_ns;
    }

    /// Total tuples processed across all operators (in + out).
    pub fn total_tuples(&self) -> u64 {
        self.stats.iter().map(OpStats::tuples).sum()
    }

    /// The timing-free counters `(invocations, in, out, peak)` per
    /// operator — equal across runs that did identical logical work.
    pub fn counts(&self) -> Vec<(u64, u64, u64, u64)> {
        self.stats
            .iter()
            .map(|s| (s.invocations, s.tuples_in, s.tuples_out, s.peak))
            .collect()
    }

    /// Operator ids ordered hottest-first by tuples touched (ties by
    /// id), limited to `k`. Operators that did no work are skipped.
    pub fn hottest(&self, k: usize) -> Vec<OpId> {
        let mut ids: Vec<OpId> = (0..self.stats.len())
            .filter(|i| self.stats[*i].tuples() > 0 || self.stats[*i].invocations > 0)
            .collect();
        ids.sort_by_key(|i| (std::cmp::Reverse(self.stats[*i].tuples()), *i));
        ids.truncate(k);
        ids
    }
}

/// Configuration of the incrementality audit: after each commit the
/// engine asserts
///
/// ```text
/// total_tuples_processed  ≤  slack + ratio × (|input delta| + |output delta|)
/// ```
///
/// The output delta participates because legitimately incremental work
/// is O(|change|) on *either* side — deleting one edge may retract many
/// reachability facts. Exceeding the budget fails the commit with an
/// [`crate::error::Error`] (without poisoning the engine: state is
/// consistent, the work bound was merely exceeded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Allowed tuples of work per changed input/output row.
    pub ratio: u64,
    /// Flat allowance independent of the delta size.
    pub slack: u64,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            ratio: 32,
            slack: 256,
        }
    }
}

impl AuditConfig {
    /// Check a commit's profile against the budget.
    pub fn check(
        &self,
        profile: &WorkProfile,
        output_tuples: u64,
    ) -> std::result::Result<(), String> {
        let budget = self.slack.saturating_add(
            self.ratio
                .saturating_mul(profile.input_tuples + output_tuples),
        );
        let work = profile.total_tuples();
        if work > budget {
            Err(format!(
                "incrementality audit: {work} tuples processed exceeds budget {budget} \
                 (= {} + {} x (|in|={} + |out|={}))",
                self.slack, self.ratio, profile.input_tuples, output_tuples
            ))
        } else {
            Ok(())
        }
    }
}

/// Counters filled by [`crate::recursive::process_recursive_stratum`]
/// when profiling: work done by one recursive fixpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixpointProbe {
    /// Rows popped from the DRed / semi-naive frontiers (each distinct
    /// row is driven at most once per phase).
    pub driven: u64,
    /// Rows handed out by view probes while driving — the probe-side
    /// work. Under the arranged evaluator this stays
    /// O(matches); a full scan would make it O(relation) and trip the
    /// incrementality audit.
    pub examined: u64,
    /// Peak frontier length observed.
    pub peak: u64,
}

impl FixpointProbe {
    /// Note the current frontier length.
    pub fn observe_frontier(&mut self, len: usize) {
        self.peak = self.peak.max(len as u64);
    }

    /// Note one row popped and driven through the rules.
    pub fn pop(&mut self) {
        self.driven += 1;
    }

    /// Note `n` rows handed out by probes (drained from a
    /// [`crate::recursive::View`]).
    pub fn examine(&mut self, n: u64) {
        self.examined += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opstats_absorb_and_merge() {
        let mut a = OpStats::default();
        a.absorb(3, 2, 5, 100);
        a.absorb(1, 1, 9, 50);
        assert_eq!(a.invocations, 2);
        assert_eq!(a.tuples_in, 4);
        assert_eq!(a.tuples_out, 3);
        assert_eq!(a.peak, 9);
        assert_eq!(a.wall_ns, 150);
        let mut b = OpStats::default();
        b.absorb(10, 10, 4, 1);
        b.merge(&a);
        assert_eq!(b.tuples(), 27);
        assert_eq!(b.peak, 9);
    }

    #[test]
    fn audit_budget_arithmetic() {
        let cfg = AuditConfig {
            ratio: 2,
            slack: 10,
        };
        let mut p = WorkProfile::new(1);
        p.input_tuples = 3;
        p.record(0, 10, 5, 10, 0); // 15 tuples of work
                                   // budget = 10 + 2*(3+1) = 18 >= 15.
        assert!(cfg.check(&p, 1).is_ok());
        p.record(0, 4, 0, 4, 0); // 19 tuples now
        assert!(cfg.check(&p, 1).is_err());
        // A bigger output delta raises the budget.
        assert!(cfg.check(&p, 3).is_ok());
    }

    #[test]
    fn hottest_orders_by_tuples() {
        let mut p = WorkProfile::new(3);
        p.record(0, 1, 1, 1, 0);
        p.record(2, 10, 10, 10, 0);
        assert_eq!(p.hottest(10), vec![2, 0]);
        assert_eq!(p.hottest(1), vec![2]);
    }
}
