//! The Nerpa controller: state synchronization between the three planes.
//!
//! The controller owns the incremental DDlog engine. Management-plane
//! changes (OVSDB monitor updates) and data-plane notifications (digests)
//! become engine transactions; output deltas become P4Runtime writes —
//! including the digest feedback loop of Fig. 4.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use crossbeam_channel::{Receiver, Select};
use ddlog::{Engine, Transaction, TxnDelta, Type, Value};
use ovsdb::db::RowChange;
use p4sim::runtime::{Digest, TableEntry, Update, WriteOp};
use p4sim::service::SwitchDevice;
use serde_json::Value as Json;

use crate::codegen::{
    assemble_program, ovsdb2ddlog, p4info2ddlog, CodegenOptions, Col, ColKind, DigestBinding,
    Generated, InputBinding, TableBinding,
};
use crate::convert::{self, InputOps, Inputs};
use crate::resync::{self, OvsdbSupervisor, ReconcileReport, ResyncReport};

/// Anything that accepts P4Runtime writes (an in-process device or a TCP
/// control client).
///
/// The controller hands a switch its whole share of a commit (or of a
/// reconcile) as one [`SwitchPush`] through [`DataPlane::push`]. Devices
/// implement the primitive calls and inherit `push`, whose default body
/// is the one place that knows their order. Handles that forward the
/// push elsewhere as a unit (the shard runtime's write queue) override
/// `push` instead.
pub trait DataPlane: Send {
    /// Apply updates atomically.
    fn write_updates(&self, updates: &[Update]) -> Result<(), String>;

    /// Apply updates atomically, carrying the causal trace id that
    /// produced them (0 = none). Data planes that cannot attribute writes
    /// fall back to [`DataPlane::write_updates`].
    fn write_updates_traced(&self, updates: &[Update], trace: u64) -> Result<(), String> {
        let _ = trace;
        self.write_updates(updates)
    }

    /// Configure a multicast group (empty ports = remove).
    fn set_mcast_group(&self, group: u16, ports: Vec<u16>) -> Result<(), String>;

    /// Apply one switch's share of the change `trace` (0 = none): each
    /// group through [`DataPlane::set_mcast_group`], then the table
    /// batch, carrying the trace, through
    /// [`DataPlane::write_updates_traced`]. Stops at the first error.
    fn push(&self, push: &SwitchPush, trace: u64) -> Result<(), String> {
        for (group, ports) in &push.groups {
            self.set_mcast_group(*group, ports.clone())?;
        }
        if !push.updates.is_empty() {
            self.write_updates_traced(&push.updates, trace)?;
        }
        Ok(())
    }

    /// Read back the switch's full table state, for reconciliation after
    /// a restart. Data planes without read-back support return `Err`.
    fn read_all_tables(&self) -> Result<Vec<(String, Vec<TableEntry>)>, String> {
        Err("data plane does not support table read-back".to_string())
    }

    /// Whether a returned [`DataPlane::push`] means the device settled
    /// it. Asynchronous handles that merely enqueue (the shard runtime's
    /// writer queues) return `false`; their writer records convergence
    /// when the device acknowledges the push.
    fn settles_inline(&self) -> bool {
        true
    }
}

impl DataPlane for SwitchDevice {
    fn write_updates(&self, updates: &[Update]) -> Result<(), String> {
        self.write(updates)
    }

    fn write_updates_traced(&self, updates: &[Update], trace: u64) -> Result<(), String> {
        self.write_traced(updates, (trace != 0).then_some(trace))
    }

    fn set_mcast_group(&self, group: u16, ports: Vec<u16>) -> Result<(), String> {
        SwitchDevice::set_mcast_group(self, group, ports);
        Ok(())
    }

    fn read_all_tables(&self) -> Result<Vec<(String, Vec<TableEntry>)>, String> {
        Ok(SwitchDevice::read_all_tables(self))
    }
}

impl DataPlane for p4sim::service::ControlClient {
    fn write_updates(&self, updates: &[Update]) -> Result<(), String> {
        self.write(updates)
    }

    fn write_updates_traced(&self, updates: &[Update], trace: u64) -> Result<(), String> {
        self.write_traced(updates, (trace != 0).then_some(trace))
    }

    fn set_mcast_group(&self, group: u16, ports: Vec<u16>) -> Result<(), String> {
        p4sim::service::ControlClient::set_mcast_group(self, group, ports)
    }

    fn read_all_tables(&self) -> Result<Vec<(String, Vec<TableEntry>)>, String> {
        p4sim::service::ControlClient::read_all_tables(self)
    }
}

/// The controller's series, the measurement surface for the paper's
/// §4.3 experiment. A series is process-wide: resolved once, so every
/// controller in the process (each shard's included) adds into the same
/// series. An instance's own numbers are its state ([`Engine::commits`],
/// the reports it returns).
struct ControllerMetrics {
    /// End-to-end latencies of handled events (change observed →
    /// data-plane write acknowledged), in microseconds.
    latency: telemetry::Histogram,
    transactions: telemetry::Counter,
    entries_pushed: telemetry::Counter,
    digest_batches: telemetry::Counter,
    /// Digest handling latency (batch received → write acked), in
    /// microseconds — the controller's digest lag.
    digest_lag_us: telemetry::Histogram,
}

fn metrics() -> &'static ControllerMetrics {
    static M: std::sync::OnceLock<ControllerMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let reg = &telemetry::global().registry;
        ControllerMetrics {
            latency: reg.histogram(
                "controller_e2e_latency_us",
                "End-to-end change-to-dataplane latency (us)",
                &telemetry::LATENCY_BOUNDS_US,
            ),
            transactions: reg.counter(
                "controller_transactions_total",
                "Engine transactions committed by the controller",
            ),
            entries_pushed: reg.counter(
                "controller_entries_pushed_total",
                "Table-entry updates pushed to switches",
            ),
            digest_batches: reg.counter(
                "controller_digest_batches_total",
                "Digest batches handled by the controller",
            ),
            digest_lag_us: reg.histogram(
                "controller_digest_lag_us",
                "Digest handling latency, batch received to write acked (us)",
                &telemetry::LATENCY_BOUNDS_US,
            ),
        }
    })
}

/// The causal context of one change flowing through the stack: the
/// trace id every event of the change is stamped with.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx {
    id: u64,
}

impl TraceCtx {
    /// Mint a fresh trace for a change entering the stack at `source`,
    /// a label for the call site's reader: the events of the change
    /// carry only the id.
    pub fn minted(_source: &'static str) -> TraceCtx {
        TraceCtx {
            id: telemetry::next_trace_id(),
        }
    }

    /// The trace the OVSDB server embedded in a monitor update
    /// ([`ovsdb::TableUpdates::trace`]), or a fresh one for an update
    /// that carried none. The commit's duration is not kept: the
    /// server's `ovsdb.commit` event already records it.
    pub fn from_monitor(embedded: Option<(u64, u64)>) -> TraceCtx {
        match embedded {
            Some((id, _commit_ns)) => TraceCtx { id },
            None => TraceCtx::minted("monitor"),
        }
    }

    /// The trace id every event and write of this change is stamped with.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// What a commit asks of one switch: multicast group snapshots to
/// program and the table batch. [`DataPlane::push`] applies it.
#[derive(Debug, Clone, Default)]
pub struct SwitchPush {
    /// Group id → desired member ports (empty = remove the group).
    pub groups: BTreeMap<u16, Vec<u16>>,
    /// The table batch, deletes before inserts.
    pub updates: Vec<Update>,
}

impl SwitchPush {
    /// Fold a later push for the same switch into this one: updates
    /// append in order, and a group's later snapshot replaces its earlier
    /// one. Groups and tables are disjoint device state, so applying the
    /// merge leaves the device where applying both pushes would.
    pub fn merge(&mut self, later: SwitchPush) {
        self.updates.extend(later.updates);
        self.groups.extend(later.groups);
    }

    /// Whether the push asks nothing of the device.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty() && self.updates.is_empty()
    }
}

/// The output of [`Controller::commit_to_plan`]: one push per touched
/// switch, in switch-id order. Everything the push half of the
/// commit→convert→write cycle needs, detached from the engine so writes
/// can be pipelined behind commits.
pub struct PushPlan {
    ctx: TraceCtx,
    /// When the commit began — push latency is measured from here so
    /// the e2e series still covers change-observed → write-acked.
    start: Instant,
    switches: BTreeMap<usize, SwitchPush>,
}

/// Build-time description of a Nerpa program: the three plane artifacts.
pub struct NerpaProgram {
    /// The management-plane schema.
    pub schema: ovsdb::Schema,
    /// The data-plane program's control surface.
    pub p4info: p4sim::P4Info,
    /// Hand-written control-plane rules.
    pub rules: String,
    /// Codegen options.
    pub options: CodegenOptions,
}

impl NerpaProgram {
    /// Generate declarations and assemble the complete DDlog source.
    pub fn generate(&self) -> (String, Generated, Generated) {
        let schema_gen = ovsdb2ddlog(&self.schema);
        let p4_gen = p4info2ddlog(&self.p4info, self.options);
        let src = assemble_program(&[&schema_gen, &p4_gen], &self.rules);
        (src, schema_gen, p4_gen)
    }
}

/// The convention relation whose rows are multicast group members:
/// `output relation MulticastGroup([switch_id: bigint,] group, port)`.
const MCAST: &str = "MulticastGroup";

/// The controller.
pub struct Controller {
    engine: Engine,
    schema: ovsdb::Schema,
    /// The generated relations' bindings by relation name (OVSDB
    /// tables, P4 tables, digests), each checked against the engine at
    /// construction.
    inputs: Inputs,
    tables: HashMap<String, TableBinding>,
    digests: HashMap<String, DigestBinding>,
    /// The `MulticastGroup` column types, if the program declares the
    /// relation: an optional leading switch column, then group and port.
    mcast_types: Option<Vec<Type>>,
    /// Registered data planes, keyed by global switch id. Sparse on
    /// purpose: a shard controller registers only the switches its
    /// partition owns, under their global ids, and output rows routed
    /// to unregistered switches are simply not this instance's to push.
    switches: BTreeMap<usize, Box<dyn DataPlane>>,
    /// Replication state derived from the `MulticastGroup` convention
    /// relation: (target, group) → member ports, where the target is a
    /// switch for per-switch groups and `None` for a group every
    /// registered switch holds. Emptied groups stay, so a reconcile
    /// replays their removal. Ordered so a replay always pushes groups
    /// in the same order.
    mcast: BTreeMap<(Option<usize>, u16), BTreeSet<u16>>,
    /// Rendered `/dataflow` snapshot shared with the introspection
    /// endpoint's page closure; refreshed after each commit while the
    /// endpoint holds a clone (the engine itself cannot cross threads).
    dataflow: std::sync::Arc<std::sync::Mutex<String>>,
    /// Rendered `/why` snapshot (derived rows per relation), refreshed
    /// like `dataflow`.
    why_page: std::sync::Arc<std::sync::Mutex<String>>,
}

impl Controller {
    /// Compile a Nerpa program into a running controller. This is where
    /// the whole stack is type-checked together: the DDlog type checker
    /// runs over the generated declarations and the rules (errors carry
    /// its diagnostics), then every generated layout is checked against
    /// the compiled relations, constant action names against their P4
    /// tables, and the `MulticastGroup` shape against the data plane's
    /// 16-bit ids. Each error names both planes' declarations.
    pub fn new(program: &NerpaProgram) -> Result<Controller, String> {
        let (src, schema_gen, p4_gen) = program.generate();
        let engine = Engine::from_source(&src).map_err(|e| e.to_string())?;
        let ovsdb = schema_gen.ovsdb.iter().map(|b| (b, "OVSDB table"));
        for (b, origin) in ovsdb.chain(p4_gen.digests.iter().map(|b| (b, "P4 digest"))) {
            check_layout(&engine, &b.relation, &b.layout, origin)?;
        }
        for t in &p4_gen.tables {
            check_layout(&engine, &t.relation, &t.layout, "P4 table")?;
            check_actions(&engine, t)?;
        }
        let mcast_types = mcast_types(&engine)?;
        // The series exist from the first controller on, not its first use.
        metrics();
        let by_relation = |b: InputBinding| (b.relation.clone(), b);
        let tables = p4_gen.tables.into_iter().map(|t| (t.relation.clone(), t));
        Ok(Controller {
            engine,
            schema: program.schema.clone(),
            inputs: schema_gen.ovsdb.into_iter().map(by_relation).collect(),
            tables: tables.collect(),
            digests: p4_gen.digests.into_iter().map(by_relation).collect(),
            mcast_types,
            switches: BTreeMap::new(),
            mcast: BTreeMap::new(),
            dataflow: std::sync::Arc::new(std::sync::Mutex::new(String::new())),
            why_page: std::sync::Arc::new(std::sync::Mutex::new(String::new())),
        })
    }

    /// Register a data plane; returns its switch id (used by
    /// `switch_id` routing and digest attribution). Ids are assigned
    /// sequentially after the highest registered id.
    pub fn add_switch(&mut self, dp: Box<dyn DataPlane>) -> usize {
        let id = self.switches.keys().next_back().map_or(0, |last| last + 1);
        self.add_switch_with_id(id, dp);
        id
    }

    /// Register a data plane under a specific global switch id. Shard
    /// controllers use this so each partition's switches keep their
    /// topology-wide ids: output rows whose `switch_id` column names an
    /// unregistered switch are skipped (they belong to another shard),
    /// and broadcast rows go to registered switches only.
    pub fn add_switch_with_id(&mut self, id: usize, dp: Box<dyn DataPlane>) {
        self.switches.insert(id, dp);
        telemetry::global()
            .health
            .set(format!("switch/{id}"), "connected");
    }

    /// The global ids of all registered switches, in ascending order.
    pub fn switch_ids(&self) -> Vec<usize> {
        self.switches.keys().copied().collect()
    }

    /// Start the live introspection endpoint on `addr` (port 0 for an
    /// ephemeral port): `/metrics`, `/metrics.json`, `/traces`,
    /// `/health`, and `/dataflow` (this controller's compiled plan with
    /// per-operator cumulative costs as JSON) over HTTP, backed by the
    /// process-wide telemetry bundle every plane registers into. The
    /// server stops when the returned handle drops.
    pub fn serve_introspection(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<telemetry::IntrospectionServer> {
        *self.dataflow.lock().unwrap() = self.engine.explain_json();
        let snap = self.dataflow.clone();
        telemetry::global().register_page("/dataflow", "application/json", move || {
            snap.lock().unwrap().clone()
        });
        *self.why_page.lock().unwrap() = self.engine.provenance_summary_json();
        let why = self.why_page.clone();
        telemetry::global().register_page("/why", "application/json", move || {
            why.lock().unwrap().clone()
        });
        telemetry::IntrospectionServer::start(addr, telemetry::global().clone())
    }

    /// Direct read access to the engine (dumps, diagnostics).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The management-plane schema this controller was compiled against
    /// (what monitor updates are decoded with).
    pub fn schema(&self) -> &ovsdb::Schema {
        &self.schema
    }

    /// Enable (or disable, with `None`) the engine's incrementality
    /// audit: every commit asserts total dataflow work is
    /// O(|input delta| + |output delta|) within the configured budget.
    pub fn set_work_audit(&mut self, cfg: Option<ddlog::AuditConfig>) {
        self.engine.set_audit(cfg);
    }

    /// Fault injection for the oracle's `stale-arrangement` demo: make
    /// the engine skip index maintenance on retractions, so ghost rows
    /// linger in arrangements and joins keep deriving from deleted
    /// state. The differential harness must catch the divergence.
    pub fn inject_stale_arrangement(&mut self, on: bool) {
        self.engine.inject_stale_arrangement(on);
    }

    /// The one place typed configuration rows become engine input,
    /// lowered through this controller's OVSDB table bindings.
    /// In-process commits, the shard runtime's routed slices and typed
    /// snapshot slices all come through here; the two wire-form shims
    /// decode through [`convert::decode_monitor_update`], which applies
    /// the same conversion row by row.
    pub fn config_ops(&self, changes: &[RowChange]) -> Result<InputOps, String> {
        convert::changes_to_ops(changes, &self.inputs)
    }

    /// Decode a monitor `table-updates` object straight into engine ops,
    /// plus the trace the server embedded, if any.
    fn decode_ops(&self, updates: &Json) -> Result<(InputOps, Option<(u64, u64)>), String> {
        convert::decode_monitor_update(updates, &self.schema, &self.inputs)
    }

    /// Ingest typed row changes under a context the caller fixed — the
    /// shard runtime fans one commit's changes to several engines, and
    /// every shard's writes must join the same trace (and keep the same
    /// upstream commit time) instead of minting orphans.
    pub fn ingest_changes(
        &mut self,
        changes: &[RowChange],
        ctx: TraceCtx,
    ) -> Result<TxnDelta, String> {
        let ops = self.config_ops(changes)?;
        self.commit_and_push(ops, ctx)
    }

    /// Handle committed OVSDB row changes (in-process path).
    pub fn handle_row_changes(&mut self, changes: &[RowChange]) -> Result<TxnDelta, String> {
        self.ingest_changes(changes, TraceCtx::minted("row_changes"))
    }

    /// Handle a monitor `table-updates` JSON object (TCP path; also the
    /// initial state returned by the `monitor` call). If the update
    /// carries the trace the OVSDB server minted at commit time, that
    /// trace follows the change down to the P4Runtime writes.
    pub fn handle_monitor_update(&mut self, updates: &Json) -> Result<TxnDelta, String> {
        let (ops, trace) = self.decode_ops(updates)?;
        self.commit_and_push(ops, TraceCtx::from_monitor(trace))
    }

    /// Handle digests from switch `switch_id` (the feedback loop).
    pub fn handle_digests(
        &mut self,
        switch_id: usize,
        digests: &[Digest],
    ) -> Result<TxnDelta, String> {
        self.commit_digests(switch_id, digests, true)
    }

    /// Retract previously-learned digests from switch `switch_id` — the
    /// aging half of the learn/age cycle (a digest that times out is a
    /// deletion of the same input tuple the learn inserted). Retracting
    /// a digest that was never learned is a no-op.
    pub fn retract_digests(
        &mut self,
        switch_id: usize,
        digests: &[Digest],
    ) -> Result<TxnDelta, String> {
        self.commit_digests(switch_id, digests, false)
    }

    fn commit_digests(
        &mut self,
        switch_id: usize,
        digests: &[Digest],
        insert: bool,
    ) -> Result<TxnDelta, String> {
        let started = Instant::now();
        let mut ops = Vec::new();
        for d in digests {
            let Some(binding) = self.digests.get(&d.name) else {
                continue; // digest type not used by the control plane
            };
            let vals = convert::digest_to_values(d, binding, switch_id)?;
            ops.push((d.name.clone(), vals, insert));
        }
        let source = if insert { "digest" } else { "digest_retract" };
        let delta = self.commit_and_push(ops, TraceCtx::minted(source))?;
        let m = metrics();
        m.digest_batches.inc();
        m.digest_lag_us.record_duration(started.elapsed());
        Ok(delta)
    }

    /// Commit raw `(relation, row, is_insert)` operations on input
    /// relations and push the resulting delta, exactly as the monitor
    /// and digest paths do. An escape hatch for test harnesses (the
    /// differential oracle uses it to model deliberately-buggy resync
    /// variants); production paths go through the typed handlers above.
    pub fn apply_input_ops(
        &mut self,
        ops: Vec<(String, Vec<Value>, bool)>,
    ) -> Result<TxnDelta, String> {
        self.commit_and_push(ops, TraceCtx::minted("input_ops"))
    }

    fn commit_and_push(
        &mut self,
        ops: Vec<(String, Vec<Value>, bool)>,
        ctx: TraceCtx,
    ) -> Result<TxnDelta, String> {
        let (delta, plan) = self.commit_to_plan(ops, ctx)?;
        if let Some(plan) = plan {
            self.push_plan(plan)?;
        }
        Ok(delta)
    }

    /// The commit half of the cycle: run the engine transaction, route
    /// the output delta to per-switch write batches, and fold any
    /// `MulticastGroup` changes into the replication state — but do not
    /// touch a data plane. The returned [`PushPlan`] carries everything
    /// the push half needs, so callers that pipeline (the shard runtime,
    /// benches) can start the next commit while this plan is written.
    pub fn commit_to_plan(
        &mut self,
        ops: Vec<(String, Vec<Value>, bool)>,
        ctx: TraceCtx,
    ) -> Result<(TxnDelta, Option<PushPlan>), String> {
        if ops.is_empty() {
            return Ok((TxnDelta::default(), None));
        }
        let start = Instant::now();
        let mut txn = Transaction::new();
        for (rel, row, insert) in ops {
            if insert {
                txn.insert(rel, row);
            } else {
                txn.delete(rel, row);
            }
        }
        // The engine stamps its flight-recorder events with this commit's
        // trace; the convergence clock starts here for changes that enter
        // the stack in-process (monitor-path traces already started at
        // the OVSDB ack, which `begin` keeps as the earlier anchor).
        self.engine.set_commit_trace(ctx.id);
        telemetry::global().convergence_begin(ctx.id);
        let delta = self.engine.commit(txn).map_err(|e| e.to_string())?;
        metrics().transactions.inc();
        // Refresh the /dataflow snapshot only while an introspection
        // endpoint actually holds the other end.
        if std::sync::Arc::strong_count(&self.dataflow) > 1 {
            *self.dataflow.lock().unwrap() = self.engine.explain_json();
        }
        if std::sync::Arc::strong_count(&self.why_page) > 1 {
            *self.why_page.lock().unwrap() = self.engine.provenance_summary_json();
        }

        // Route output deltas to switches. Deletes go first so that
        // replacing an entry (delete+insert of the same key) is valid.
        // BTreeMap so switches are always written in id order — a fixed
        // push order keeps partial-failure states reproducible.
        let mut per_switch: BTreeMap<usize, (Vec<Update>, Vec<Update>)> = BTreeMap::new();
        let mut switches: BTreeMap<usize, SwitchPush> = BTreeMap::new();
        for (rel, rows) in &delta.changes {
            if rel == MCAST {
                for (target, group) in self.apply_mcast_delta(rows) {
                    let ports: Vec<u16> = self.mcast[&(target, group)].iter().copied().collect();
                    for t in self.targets(target) {
                        let push = switches.entry(t).or_default();
                        push.groups.insert(group, ports.clone());
                    }
                }
                continue;
            }
            let Some(binding) = self.tables.get(rel) else {
                continue;
            };
            for (row, weight) in rows {
                let (target, update) = convert::row_to_update(row, *weight, binding)?;
                for t in self.targets(target) {
                    let bucket = per_switch.entry(t).or_default();
                    if weight < &0 {
                        bucket.0.push(update.clone());
                    } else {
                        bucket.1.push(update.clone());
                    }
                }
            }
        }
        for (t, (mut dels, ins)) in per_switch {
            dels.extend(ins);
            switches.entry(t).or_default().updates = dels;
        }

        let plan = PushPlan {
            ctx,
            start,
            switches,
        };
        Ok((delta, Some(plan)))
    }

    /// The push half of the cycle: hand each switch the plan touches (in
    /// switch-id order) its one [`SwitchPush`] and record the commit's
    /// latency. Each switch settles the change exactly once, after
    /// everything the change asked of it: here for planes that settle
    /// inline, on acknowledgement for asynchronous handles (the shard
    /// runtime's write pipeline).
    pub fn push_plan(&self, plan: PushPlan) -> Result<(), String> {
        let PushPlan {
            ctx,
            start,
            switches,
        } = plan;
        for (t, push) in switches {
            let Some(dp) = self.switches.get(&t) else {
                return Err(format!("push plan routed to unregistered switch {t}"));
            };
            let write_start = Instant::now();
            metrics().entries_pushed.add(push.updates.len() as u64);
            dp.push(&push, ctx.id)?;
            if dp.settles_inline() {
                let write_ns = write_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                let updates = push.updates.len();
                telemetry::global().convergence_settled(ctx.id, t, None, updates, write_ns);
            }
        }
        metrics().latency.record_duration(start.elapsed());
        Ok(())
    }

    /// The registered switches a row routed to `target` goes to: the
    /// switch itself, none if another shard owns it, or every registered
    /// switch for a broadcast row (`None`).
    fn targets(&self, target: Option<usize>) -> Vec<usize> {
        match target {
            Some(t) if self.switches.contains_key(&t) => vec![t],
            Some(_) => vec![],
            None => self.switches.keys().copied().collect(),
        }
    }

    /// Fold a `MulticastGroup` delta into the replication state and
    /// return the `(target, group)`s it touched. A row is `[switch,]
    /// group, port`; construction checked the shape, so group and port
    /// fit in 16 bits.
    fn apply_mcast_delta(
        &mut self,
        rows: &[(Vec<Value>, isize)],
    ) -> BTreeSet<(Option<usize>, u16)> {
        let mut touched = BTreeSet::new();
        for (row, w) in rows {
            let (switch, member) = row.split_at(row.len() - 2);
            let target = switch.first().map(|s| convert::num(s) as usize);
            let group = convert::num(&member[0]) as u16;
            let port = convert::num(&member[1]) as u16;
            let set = self.mcast.entry((target, group)).or_default();
            if *w > 0 {
                set.insert(port);
            } else {
                set.remove(&port);
            }
            touched.insert((target, group));
        }
        touched
    }

    /// The replication state's groups switch `switch_id` holds, emptied
    /// ones included.
    fn groups_of(&self, switch_id: usize) -> impl Iterator<Item = (u16, &BTreeSet<u16>)> {
        self.mcast
            .iter()
            .filter(move |((t, _), _)| t.is_none_or(|t| t == switch_id))
            .map(|((_, g), ports)| (*g, ports))
    }

    /// Resync the engine's input relations against a fresh monitor
    /// initial-state snapshot, committing **only the delta**.
    ///
    /// This is the recovery half of the paper's incrementality story:
    /// after a disconnect the controller does not rebuild from scratch —
    /// it diffs the snapshot against what the engine already holds and
    /// commits the difference, so recovery work is proportional to the
    /// changes missed while disconnected, not to the database size. The
    /// resulting engine delta flows to the switches like any other
    /// transaction.
    ///
    /// `monitored_tables` lists every monitored table, so that tables
    /// which became empty while disconnected (and are therefore absent
    /// from the snapshot) still get their stale rows retracted.
    pub fn resync_from_snapshot(
        &mut self,
        initial: &Json,
        monitored_tables: &[String],
    ) -> Result<ResyncReport, String> {
        let (ops, _) = self.decode_ops(initial)?;
        self.resync_to(ops, monitored_tables)
    }

    /// [`Controller::resync_from_snapshot`] over an already-decoded
    /// snapshot: `rows` are the snapshot's contents as inserts. The
    /// sharded front-ends decode once and hand each shard its slice.
    pub fn resync_from_rows(
        &mut self,
        rows: &[RowChange],
        monitored_tables: &[String],
    ) -> Result<ResyncReport, String> {
        let ops = self.config_ops(rows)?;
        self.resync_to(ops, monitored_tables)
    }

    fn resync_to(
        &mut self,
        snapshot_ops: InputOps,
        monitored_tables: &[String],
    ) -> Result<ResyncReport, String> {
        let snapshot = resync::group_inserts(snapshot_ops);
        let mut tables: BTreeSet<String> = monitored_tables.iter().cloned().collect();
        tables.extend(snapshot.keys().cloned());

        let empty = Vec::new();
        let mut ops = Vec::new();
        let mut report = ResyncReport::default();
        for t in &tables {
            if !self.inputs.contains_key(t) {
                continue; // not an input relation of this program
            }
            let target = snapshot.get(t).unwrap_or(&empty);
            let current = self.engine.dump(t).map_err(|e| e.to_string())?;
            let (inserts, deletes) = resync::diff_rows(&current, target);
            report.snapshot_rows += target.len();
            report.inserts += inserts.len();
            report.deletes += deletes.len();
            report.tables += 1;
            for row in deletes {
                ops.push((t.clone(), row, false));
            }
            for row in inserts {
                ops.push((t.clone(), row, true));
            }
        }
        self.commit_and_push(ops, TraceCtx::minted("resync"))?;
        telemetry::catalogue::CONTROLLER_RESYNC.record(
            0,
            &[
                ("snapshot_rows", report.snapshot_rows as u64),
                ("inserts", report.inserts as u64),
                ("deletes", report.deletes as u64),
                ("tables", report.tables as u64),
            ],
        );
        Ok(report)
    }

    /// The table entries switch `switch_id` should hold, derived from
    /// the engine's output relations.
    pub fn desired_entries(&self, switch_id: usize) -> Result<BTreeSet<TableEntry>, String> {
        let mut out = BTreeSet::new();
        for (rel, binding) in &self.tables {
            let rows = self.engine.dump(rel).map_err(|e| e.to_string())?;
            for row in &rows {
                let (target, update) = convert::row_to_update(row, 1, binding)?;
                if target.is_none_or(|t| t == switch_id) {
                    out.insert(update.entry);
                }
            }
        }
        Ok(out)
    }

    /// The multicast groups the controller believes switch `switch_id`
    /// holds (its replication state), order-normalized with empty groups
    /// pruned — comparable against a device's `mcast_snapshot`.
    pub fn mcast_snapshot(&self, switch_id: usize) -> BTreeMap<u16, BTreeSet<u16>> {
        self.groups_of(switch_id)
            .filter(|(_, ports)| !ports.is_empty())
            .map(|(g, ports)| (g, ports.clone()))
            .collect()
    }

    /// Resolve an installed P4 table entry back to the output-relation
    /// row that produced it: invert the entry through the table binding
    /// ([`convert::entry_to_row`], the reverse of the commit path's
    /// row→update conversion) and check the row is there. Returns
    /// `(relation, row)`.
    pub fn entry_source(
        &self,
        switch_id: usize,
        entry: &TableEntry,
    ) -> Result<(String, Vec<ddlog::Value>), String> {
        let row = self.entry_to_row(switch_id, entry)?;
        if self
            .engine
            .contains(&entry.table, &row)
            .map_err(|e| e.to_string())?
        {
            return Ok((entry.table.clone(), row));
        }
        Err(format!(
            "no `{}` output row maps to that entry on switch {switch_id}",
            entry.table
        ))
    }

    /// Why is this P4 table entry installed? Resolves the entry to its
    /// output-relation row and returns the engine's derivation tree,
    /// rooted at the OVSDB-mirrored input facts.
    pub fn why_entry(
        &self,
        switch_id: usize,
        entry: &TableEntry,
    ) -> Result<ddlog::WhyNode, String> {
        let (rel, row) = self.entry_source(switch_id, entry)?;
        self.engine.why(&rel, row).map_err(|e| e.to_string())
    }

    /// Why is `port` a member of multicast `group`? Resolves through
    /// the `MulticastGroup` convention relation and returns the
    /// derivation tree.
    pub fn why_mcast(
        &self,
        switch_id: usize,
        group: u16,
        port: u16,
    ) -> Result<ddlog::WhyNode, String> {
        let types = self.mcast_types.as_deref().unwrap_or_default();
        let vals = [switch_id as u128, group as u128, port as u128];
        let row: Vec<Value> = types
            .iter()
            .zip(&vals[vals.len() - types.len()..])
            .map(|(ty, v)| convert::typed(ty, *v))
            .collect();
        if !self
            .engine
            .contains(MCAST, &row)
            .map_err(|e| e.to_string())?
        {
            return Err(format!(
                "no MulticastGroup row for group {group} port {port} on switch {switch_id}"
            ));
        }
        self.engine.why(MCAST, row).map_err(|e| e.to_string())
    }

    /// The output row that *would* produce `entry` on `switch_id`.
    fn entry_to_row(&self, switch_id: usize, entry: &TableEntry) -> Result<Vec<Value>, String> {
        let name = &entry.table;
        let Some(binding) = self.tables.get(name) else {
            return Err(format!("no table-bound output relation named `{name}`"));
        };
        convert::entry_to_row(entry, switch_id, binding)
    }

    /// Why is this P4 table entry *not* installed? Inverts the entry to
    /// its would-be output-relation row and reports, per candidate
    /// rule, the first failing literal.
    pub fn why_not_entry(
        &self,
        switch_id: usize,
        entry: &TableEntry,
    ) -> Result<ddlog::WhyNot, String> {
        let row = self.entry_to_row(switch_id, entry)?;
        self.engine
            .why_not(&entry.table, row)
            .map_err(|e| e.to_string())
    }

    /// Swap the data plane behind an existing switch id (e.g. after the
    /// switch restarted and must be re-dialed). Follow with
    /// [`Controller::reconcile_switch`] to restore its table state.
    pub fn replace_switch(
        &mut self,
        switch_id: usize,
        dp: Box<dyn DataPlane>,
    ) -> Result<(), String> {
        let Some(slot) = self.switches.get_mut(&switch_id) else {
            return Err(format!("no switch with id {switch_id}"));
        };
        *slot = dp;
        Ok(())
    }

    /// Reconcile a (possibly restarted) switch: read back its actual
    /// table state, diff against the desired state from the engine's
    /// output relations, and push only the difference — deletes first,
    /// then missing inserts. Multicast groups are replayed from the
    /// controller's replication state.
    pub fn reconcile_switch(&mut self, switch_id: usize) -> Result<ReconcileReport, String> {
        let mut reports = self.reconcile_switches(&[switch_id])?;
        reports
            .remove(&switch_id)
            .ok_or_else(|| format!("no switch with id {switch_id}"))
    }

    /// Reconcile several switches, running the device-facing half
    /// (table read-back, diff push, multicast replay) concurrently —
    /// one scoped thread per switch. Fails on the first per-switch
    /// error; supervisors that must survive one dead switch use
    /// [`Controller::try_reconcile_switches`].
    pub fn reconcile_switches(
        &mut self,
        ids: &[usize],
    ) -> Result<BTreeMap<usize, ReconcileReport>, String> {
        let mut reports = BTreeMap::new();
        for (id, res) in self.try_reconcile_switches(ids) {
            reports.insert(id, res?);
        }
        Ok(reports)
    }

    /// Reconcile several switches concurrently, reporting each one's
    /// outcome independently: a dead or misbehaving switch yields an
    /// `Err` for its id while its neighbors still converge. The desired
    /// states are computed serially first (they share the engine); the
    /// per-device work runs on one scoped thread per switch, so a slow
    /// device only delays its own recovery.
    pub fn try_reconcile_switches(
        &mut self,
        ids: &[usize],
    ) -> BTreeMap<usize, Result<ReconcileReport, String>> {
        // Phase 1 (serial, shared engine): desired entries and desired
        // multicast groups per switch.
        type Desired = (BTreeSet<TableEntry>, BTreeMap<u16, Vec<u16>>);
        let mut results: BTreeMap<usize, Result<ReconcileReport, String>> = BTreeMap::new();
        let mut desired: BTreeMap<usize, Desired> = BTreeMap::new();
        for &id in ids {
            if !self.switches.contains_key(&id) {
                results.insert(id, Err(format!("no switch with id {id}")));
                continue;
            }
            match self.desired_entries(id) {
                Ok(entries) => {
                    let groups = self
                        .groups_of(id)
                        .map(|(g, ports)| (g, ports.iter().copied().collect()))
                        .collect();
                    desired.insert(id, (entries, groups));
                }
                Err(e) => {
                    results.insert(id, Err(e));
                }
            }
        }

        // Phase 2 (parallel, per device): read back, diff, push.
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (id, dp) in self.switches.iter_mut() {
                let Some((want, groups)) = desired.remove(id) else {
                    continue;
                };
                let id = *id;
                handles.push((
                    id,
                    scope.spawn(move || reconcile_device(dp.as_mut(), &want, groups)),
                ));
            }
            for (id, h) in handles {
                let res = h
                    .join()
                    .unwrap_or_else(|_| Err(format!("reconcile thread for switch {id} panicked")));
                results.insert(id, res);
            }
        });

        for (id, res) in &results {
            match res {
                Ok(report) => {
                    metrics()
                        .entries_pushed
                        .add((report.inserted + report.deleted) as u64);
                    telemetry::catalogue::CONTROLLER_RECONCILE.record(
                        0,
                        &[
                            ("switch", *id as u64),
                            ("inserted", report.inserted as u64),
                            ("deleted", report.deleted as u64),
                            ("unchanged", report.unchanged as u64),
                        ],
                    );
                    telemetry::global()
                        .health
                        .set(format!("switch/{id}"), "ok(reconciled)");
                }
                Err(e) => {
                    telemetry::catalogue::CONTROLLER_RECONCILE_ERROR.record_note(
                        0,
                        &[("switch", *id as u64)],
                        e.as_str(),
                    );
                    telemetry::global()
                        .health
                        .set(format!("switch/{id}"), "degraded(reconcile failed)");
                }
            }
        }
        results
    }

    /// Run the event loop under a supervisor: whenever the OVSDB link
    /// dies (the monitor channel disconnects), reconnect with backoff,
    /// re-issue the monitor call, resync from the snapshot, and resume.
    /// Returns when `stop` fires or the supervisor exhausts its retry
    /// budget.
    pub fn run_supervised(
        &mut self,
        supervisor: &mut OvsdbSupervisor,
        digest_feeds: Vec<Receiver<Vec<Digest>>>,
        stop: Receiver<()>,
    ) -> Result<(), String> {
        let mut digests_alive = vec![true; digest_feeds.len()];
        let mut sessions = 0u64;
        loop {
            let (client, updates, report) = supervisor.connect_and_sync(self)?;
            // After a RE-connect that replayed missed changes, the
            // switches may have drifted too (e.g. the fault hit both
            // links). Reconcile them concurrently and tolerantly: each
            // switch converges on its own thread, and one dead switch
            // degrades only itself — never the event loop or the other
            // switches. The initial connect skips this (nothing pushed
            // yet to drift from).
            sessions += 1;
            if sessions > 1 && report.inserts + report.deletes > 0 {
                let ids = self.switch_ids();
                self.try_reconcile_switches(&ids);
            }
            'session: loop {
                let mut sel = Select::new();
                let mon_idx = sel.recv(&updates);
                let mut digest_idxs = Vec::new();
                for (rx, alive) in digest_feeds.iter().zip(&digests_alive) {
                    if *alive {
                        digest_idxs.push(Some(sel.recv(rx)));
                    } else {
                        digest_idxs.push(None);
                    }
                }
                let stop_idx = sel.recv(&stop);
                let op = sel.select();
                let idx = op.index();
                if idx == mon_idx {
                    match op.recv(&updates) {
                        Ok(update) => {
                            self.handle_monitor_update(&update)?;
                        }
                        Err(_) => {
                            // Link died: reconnect.
                            telemetry::catalogue::RESYNC_LINK_LOST.record(0, &[]);
                            telemetry::global()
                                .health
                                .set("ovsdb", "down(monitor channel)");
                            break 'session;
                        }
                    }
                } else if idx == stop_idx {
                    let _ = op.recv(&stop);
                    drop(client);
                    return Ok(());
                } else {
                    let pos = digest_idxs.iter().position(|i| *i == Some(idx)).unwrap();
                    match op.recv(&digest_feeds[pos]) {
                        Ok(digests) => {
                            self.handle_digests(pos, &digests)?;
                        }
                        Err(_) => digests_alive[pos] = false,
                    }
                }
            }
            drop(client);
        }
    }
}

/// Check a generated layout against the relation the engine compiled
/// from its declaration (the rules cannot redeclare it, so a mismatch
/// means the generator and the compiler disagree).
fn check_layout(engine: &Engine, rel: &str, layout: &[Col], origin: &str) -> Result<(), String> {
    let compiled = engine.relation_schema(rel).map_err(|e| e.to_string())?;
    let compiled: Vec<_> = compiled.iter().map(|(n, t)| format!("{n}: {t}")).collect();
    let generated: Vec<_> = layout
        .iter()
        .map(|c| format!("{}: {}", c.name, c.ty))
        .collect();
    if compiled != generated {
        let [compiled, generated] = [compiled, generated].map(|cols| cols.join(", "));
        return Err(format!(
            "relation `{rel}` is declared ({compiled}) in the program, \
             but {origin} `{rel}` generates ({generated})"
        ));
    }
    Ok(())
}

/// Every constant a rule or fact writes into a table relation's
/// `action` column must name an action of the P4 table. (Computed names
/// are checked per row, by [`convert::row_to_update`].)
fn check_actions(engine: &Engine, t: &TableBinding) -> Result<(), String> {
    let Some(col) = t.layout.iter().position(|c| c.kind == ColKind::Action) else {
        return Ok(());
    };
    let declared: Vec<&str> = t.table.actions.iter().map(|a| a.name.as_str()).collect();
    for head in engine.head_constants(&t.relation) {
        if let Some(Some(Value::Str(name))) = head.get(col) {
            if !declared.contains(&&**name) {
                return Err(format!(
                    "relation `{}` column `action`: a rule writes \"{name}\", \
                     but P4 table `{}` declares only {}",
                    t.relation,
                    t.table.name,
                    declared.join(", ")
                ));
            }
        }
    }
    Ok(())
}

/// The `MulticastGroup` column types, if the program declares it: an
/// optional leading switch column (`bigint`, like the generated
/// `switch_id`; without it every switch holds every group), then group
/// and port, which the data plane's replication engine holds as P4
/// `standard_metadata` `bit<16>` fields.
fn mcast_types(engine: &Engine) -> Result<Option<Vec<Type>>, String> {
    let Ok(cols) = engine.relation_schema(MCAST) else {
        return Ok(None);
    };
    if !(2..=3).contains(&cols.len()) {
        return Err(format!(
            "{MCAST} must have 2 or 3 columns, has {}",
            cols.len()
        ));
    }
    let want = [
        "a switch column is bigint, like the generated `switch_id`",
        "P4 `standard_metadata.mcast_grp` is bit<16>",
        "P4 `standard_metadata.egress_spec` is bit<16>",
    ];
    for (i, (name, ty)) in (3 - cols.len()..).zip(&cols) {
        let fits = match i {
            0 => *ty == Type::Int,
            _ => matches!(ty, Type::Bit(w) if *w <= 16),
        };
        if !fits {
            return Err(format!("{MCAST} column `{name}` is {ty}, but {}", want[i]));
        }
    }
    Ok(Some(cols.into_iter().map(|(_, ty)| ty).collect()))
}

/// The device-facing half of a switch reconciliation: read back actual
/// table state and push, as one [`SwitchPush`], the desired multicast
/// groups and the diff against `want` (deletes first). Runs on a
/// per-switch thread in [`Controller::reconcile_switches`] so one
/// stalled device cannot delay another's recovery.
fn reconcile_device(
    dp: &mut dyn DataPlane,
    want: &BTreeSet<TableEntry>,
    groups: BTreeMap<u16, Vec<u16>>,
) -> Result<ReconcileReport, String> {
    let actual: BTreeSet<TableEntry> = dp
        .read_all_tables()?
        .into_iter()
        .flat_map(|(_, entries)| entries)
        .collect();

    let mut report = ReconcileReport::default();
    let mut push = SwitchPush {
        groups,
        updates: Vec::new(),
    };
    for entry in actual.difference(want) {
        push.updates.push(Update {
            op: WriteOp::Delete,
            entry: entry.clone(),
        });
        report.deleted += 1;
    }
    for entry in want.difference(&actual) {
        push.updates.push(Update {
            op: WriteOp::Insert,
            entry: entry.clone(),
        });
        report.inserted += 1;
    }
    report.unchanged = want.intersection(&actual).count();
    report.mcast_groups = push.groups.len();
    if !push.is_empty() {
        dp.push(&push, 0)?;
    }
    Ok(report)
}
