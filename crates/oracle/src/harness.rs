//! The lockstep differential harness — one harness at every shard count.
//!
//! The stack under test is a [`ShardSet`] of N ≥ 1 controllers over N
//! switches, fed from one [`ovsdb::Database`]. N = 1 *is* the unsharded
//! controller (one engine, one switch, the router sends everything to
//! shard 0). It is checked, per switch, against:
//!
//! * the **baseline** — a [`baselines::FullRecompute`] reconciling its
//!   own `SwitchDevice` from the plain-Rust `Model` — and the pure
//!   specification the baseline computes from;
//! * for N > 1, the **unsharded reference** — one [`Controller`] holding
//!   all N switches in a single engine — whose relations must equal the
//!   union of the shard engines' (sharding is unobservable).
//!
//! After every step (while the management link is up) the harness
//! asserts the data planes are identical and that the cross-plane
//! invariants hold: engine inputs mirror the database, every installed
//! entry is traceable to an output-relation tuple, no Z-set weight is
//! non-positive, and the database's uniqueness indexes are intact.
//! Faults (link outages, switch restarts targeted at a single shard's
//! switch, durable-server crashes), injected bugs, the work audit and
//! the failure explanations (work profile, why-dump) are available at
//! every N — the modes are configuration, not files.

use std::collections::{BTreeMap, BTreeSet};

use baselines::FullRecompute;
use nerpa::codegen::CodegenOptions;
use nerpa::controller::{Controller, NerpaProgram};
use nerpa::resync;
use ovsdb::db::RowChange;
use p4sim::runtime::{FieldMatch, TableEntry, Update, WriteOp};
use p4sim::service::SwitchDevice;
use p4sim::Switch;
use shard::{PartitionSpec, Router, ShardSet};

use crate::model::{diff_entries, installed, Feed, Groups, Model, MONITORED};
use crate::workload::{FaultKind, FaultPlan, WorkloadOp};

/// A deliberately-introduced controller defect, used to demonstrate
/// that the oracle catches real bug classes and shrinks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// The post-reconnect resync forgets to retract rows that were
    /// deleted while the link was down (stale state survives recovery).
    SkipResyncDeletes,
    /// The monitor-update handler drops row deletions entirely (a
    /// classic "handles inserts, forgets deletes" controller bug).
    DropConfigDeletes,
    /// The engine skips arrangement (index) maintenance on retractions:
    /// ghost rows linger in the shared join indexes, so joins keep
    /// deriving flows from deleted state while the relation itself looks
    /// correct — the evaluator-level analogue of a stale cache.
    StaleArrangement,
}

impl InjectedBug {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<InjectedBug> {
        match s {
            "skip-resync-deletes" => Some(InjectedBug::SkipResyncDeletes),
            "drop-config-deletes" => Some(InjectedBug::DropConfigDeletes),
            "stale-arrangement" => Some(InjectedBug::StaleArrangement),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            InjectedBug::SkipResyncDeletes => "skip-resync-deletes",
            InjectedBug::DropConfigDeletes => "drop-config-deletes",
            InjectedBug::StaleArrangement => "stale-arrangement",
        }
    }
}

/// Configuration of one oracle run.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Workload seed.
    pub seed: u64,
    /// Number of workload steps.
    pub steps: usize,
    /// Chaos seed: when set, a [`FaultPlan`] derived from it injects
    /// management-link outages and switch restarts.
    pub chaos: Option<u64>,
    /// When true (and `chaos` is set), the fault plan also schedules
    /// abrupt server-process crashes with torn WAL tails; the run uses a
    /// durable database and checks crash-equivalence on every crash.
    pub crashes: bool,
    /// Deliberate controller defect to inject.
    pub bug: Option<InjectedBug>,
    /// Shard count N (0 is read as 1): a `ShardSet` of N engines over N
    /// switches. 1 is the unsharded controller; above 1 the run adds
    /// one unsharded reference engine over all N switches and checks
    /// cross-shard equivalence against it at every step.
    pub shards: usize,
}

impl OracleConfig {
    /// A fault-free, bug-free run.
    pub fn new(seed: u64, steps: usize) -> OracleConfig {
        OracleConfig {
            seed,
            steps,
            chaos: None,
            crashes: false,
            bug: None,
            shards: 1,
        }
    }
}

/// Statistics from a successful run.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Steps executed.
    pub steps: usize,
    /// Management-link outages injected.
    pub outages: usize,
    /// Switch restarts injected.
    pub switch_restarts: usize,
    /// Server-process crashes injected (with recovery from the WAL).
    pub crashes: usize,
    /// Crashes whose WAL tail was actually torn (a committed record
    /// partially persisted and then truncated on recovery).
    pub torn_tails: usize,
    /// Table entries installed at the end of the run.
    pub final_entries: usize,
    /// Multicast groups installed at the end of the run.
    pub final_groups: usize,
    /// Engine transactions committed by the incremental controller.
    pub transactions: u64,
}

/// A failed step: which step, which op, and why.
#[derive(Debug, Clone)]
pub struct StepFailure {
    /// 0-based index of the failing step.
    pub step: usize,
    /// The op applied at that step (`None` if the failure happened
    /// during setup or a fault transition).
    pub op: Option<WorkloadOp>,
    /// Which invariant broke, with detail.
    pub reason: String,
    /// Rendered [`ddlog::WorkProfile`] of the engine commit closest to
    /// the failure — which operators did the work and how much (`None`
    /// if the engine never committed).
    pub work_profile: Option<String>,
    /// Provenance dump for the first diverging tuple: a `why` derivation
    /// tree for a stale installed entry (which base fact still supports
    /// it), or a `why_not` report for a missing one (which literal
    /// blocks it). `None` when the failure is not a state divergence.
    pub why_dump: Option<String>,
}

impl std::fmt::Display for StepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}", self.step)?;
        if let Some(op) = &self.op {
            write!(f, " ({op:?})")?;
        }
        write!(f, ": {}", self.reason)
    }
}

/// A failure plus the shrunk reproduction.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// The original failure.
    pub failure: StepFailure,
    /// Length of the originally-failing workload.
    pub original_len: usize,
    /// Minimal reproducing op sequence found by ddmin.
    pub shrunk: Vec<WorkloadOp>,
    /// Prometheus-style metrics snapshot captured at the moment the
    /// invariant broke, before the ddmin re-runs perturb the registry.
    pub metrics_snapshot: String,
    /// Rendered span tree of the last change that flowed through the
    /// stack before the failure (`None` if nothing was traced).
    pub failing_trace: Option<String>,
    /// Flight-recorder dump (`.nfr`) snapshotted at the moment the
    /// invariant broke — the black box attached to the counterexample.
    /// Inspect with `nerpa flight show`.
    pub dump_path: Option<std::path::PathBuf>,
}

/// A scratch durability directory for a crash-capable run, removed when
/// the harness is dropped (including on panic or early return).
struct DurableDir(std::path::PathBuf);

impl DurableDir {
    fn new() -> DurableDir {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("nerpa-oracle-wal-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DurableDir(dir)
    }
}

impl Drop for DurableDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Durability settings for crash-capable oracle runs: fsync suppressed
/// (the oracle tears files, not the page cache, so syncs only cost
/// time), compaction threshold low enough that seeded runs exercise
/// snapshot+suffix recovery, not just log replay.
fn oracle_durability() -> ovsdb::DurabilityConfig {
    ovsdb::DurabilityConfig {
        fsync: ovsdb::FsyncPolicy::Never,
        snapshot_after_bytes: 16 * 1024,
    }
}

struct Harness {
    db: ovsdb::Database,
    /// The stack under test: N shard controllers driven in lockstep.
    shards: ShardSet,
    /// Switch `i`'s device (owned by shard `i % N`).
    devices: Vec<SwitchDevice>,
    /// N > 1 only: the unsharded reference engine and its N devices.
    reference: Option<(Controller, Vec<SwitchDevice>)>,
    /// Per switch: the full-recompute baseline and the device it
    /// reconciles.
    baselines: Vec<(FullRecompute, SwitchDevice)>,
    program: p4sim::ast::Program,
    model: Model,
    connected: bool,
    outage_remaining: usize,
    /// Rotates which switch (and therefore which single shard) each
    /// switch-restart fault targets.
    restarts: usize,
    bug: Option<InjectedBug>,
    /// Scratch durability directory (crash-capable runs only).
    durable: Option<DurableDir>,
    /// Monitor-snapshot of the database before the most recent committed
    /// transaction — the committed prefix a torn-tail recovery must land
    /// on.
    pre_last_commit: String,
    /// Monitor-snapshot after the most recent committed transaction.
    post_last_commit: String,
    /// The most recent committed transaction's ops (re-applied after a
    /// torn-tail recovery, since the client was already acked).
    last_ops: Option<serde_json::Value>,
}

impl Harness {
    fn new(cfg: &OracleConfig, durable: bool) -> Result<Harness, String> {
        let n = cfg.shards.max(1);
        let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA)?;
        let program = p4sim::parse_p4(snvs::assets::SNVS_P4).map_err(|e| e.to_string())?;
        let nerpa_program = NerpaProgram {
            schema: schema.clone(),
            p4info: p4sim::P4Info::from_program(&program),
            rules: snvs::assets::SNVS_RULES.to_string(),
            options: CodegenOptions { per_switch: true },
        };
        let new_devices = || -> Vec<SwitchDevice> {
            (0..n)
                .map(|_| SwitchDevice::new(Switch::new(program.clone())))
                .collect()
        };
        let mut shards = ShardSet::new(&nerpa_program, Router::new(PartitionSpec::snvs(), n))?;
        for shard in 0..n {
            let controller = shards.controller_mut(shard);
            // Every oracle step also audits incrementality: commit work
            // must stay proportional to the input + output deltas.
            // Generous budget — DRed on MAC-learning churn legitimately
            // over-deletes.
            controller.set_work_audit(Some(ddlog::AuditConfig {
                ratio: 64,
                slack: 4096,
            }));
            if cfg.bug == Some(InjectedBug::StaleArrangement) {
                controller.inject_stale_arrangement(true);
            }
        }
        let devices = new_devices();
        for (sw, device) in devices.iter().enumerate() {
            shards.add_switch(sw, Box::new(device.clone()));
        }
        let reference = if n > 1 {
            let mut controller = Controller::new(&nerpa_program)?;
            let flat_devices = new_devices();
            for (sw, device) in flat_devices.iter().enumerate() {
                controller.add_switch_with_id(sw, Box::new(device.clone()));
            }
            Some((controller, flat_devices))
        } else {
            None
        };
        let (db, durable) = if durable {
            let dir = DurableDir::new();
            let (db, _) = ovsdb::Database::open(&dir.0, schema, oracle_durability())
                .map_err(|e| e.to_string())?;
            (db, Some(dir))
        } else {
            (ovsdb::Database::new(schema), None)
        };
        let baselines = new_devices()
            .into_iter()
            .map(|device| (FullRecompute::new(), device))
            .collect();
        let mut harness = Harness {
            db,
            shards,
            devices,
            reference,
            baselines,
            program,
            model: Model::new(n),
            connected: true,
            outage_remaining: 0,
            restarts: 0,
            bug: cfg.bug,
            durable,
            pre_last_commit: String::new(),
            post_last_commit: String::new(),
            last_ops: None,
        };
        harness.pre_last_commit = harness.db.monitor_snapshot(&MONITORED)?.to_string();
        harness.post_last_commit = harness.pre_last_commit.clone();
        harness.transact(harness.model.switch_rows())?;
        Ok(harness)
    }

    /// Failure-message prefix naming one of several switches or shards
    /// ("switch 2: ") — empty at N = 1, where there is only one.
    fn at(&self, what: &str, index: usize) -> String {
        if self.devices.len() > 1 {
            format!("{what} {index}: ")
        } else {
            String::new()
        }
    }

    /// Run one transaction against the database, maintaining the
    /// crash-equivalence bookkeeping: the committed-prefix snapshots and
    /// the last acked ops.
    fn commit(&mut self, ops: serde_json::Value) -> Result<Vec<RowChange>, String> {
        let pre = self.db.monitor_snapshot(&MONITORED)?.to_string();
        let before = self.db.commit_index();
        let (results, changes) = self.db.transact(&ops);
        if self.db.commit_index() == before {
            return Err(format!("oracle transaction aborted: {results}"));
        }
        self.pre_last_commit = pre;
        self.post_last_commit = self.db.monitor_snapshot(&MONITORED)?.to_string();
        self.last_ops = Some(ops);
        Ok(changes)
    }

    /// Commit a transaction and feed its row changes to the controllers
    /// — the shards through the injected bug filter if one is armed.
    fn transact(&mut self, ops: serde_json::Value) -> Result<(), String> {
        let changes = self.commit(ops)?;
        if !self.connected {
            return Ok(()); // the monitor link is down: updates are lost
        }
        if let Some((reference, _)) = &mut self.reference {
            reference.handle_row_changes(&changes)?;
        }
        if self.bug == Some(InjectedBug::DropConfigDeletes) {
            let kept: Vec<RowChange> = changes.into_iter().filter(|c| c.new.is_some()).collect();
            self.shards.handle_row_changes(&kept)
        } else {
            self.shards.handle_row_changes(&changes)
        }
    }

    /// One workload step: lower the op through the model, feed the
    /// controllers (reference first), and let every baseline recompute
    /// its whole desired state and push the diff to its own switch.
    fn step(&mut self, op: &WorkloadOp) -> Result<(), String> {
        match self.model.apply(op) {
            None => return Ok(()),
            Some(Feed::Transact(ops)) => self.transact(ops)?,
            Some(Feed::Digest { sw, digest, learn }) => {
                let digests = std::slice::from_ref(&digest);
                if let Some((reference, _)) = &mut self.reference {
                    if learn {
                        reference.handle_digests(sw, digests)?;
                    } else {
                        reference.retract_digests(sw, digests)?;
                    }
                }
                if learn {
                    self.shards.handle_digests(sw, digests)?;
                } else {
                    self.shards.retract_digests(sw, digests)?;
                }
            }
        }
        for (sw, (baseline, device)) in self.baselines.iter_mut().enumerate() {
            let (updates, mcast) = baseline.reconcile(&self.model.ports, &self.model.macs(sw));
            device.write(&updates)?;
            for (group, members) in mcast {
                device.set_mcast_group(group, members);
            }
        }
        Ok(())
    }

    fn inject_fault(&mut self, kind: FaultKind, report: &mut OracleReport) -> Result<(), String> {
        match kind {
            FaultKind::OvsdbOutage { outage_steps } => {
                telemetry::catalogue::CHAOS_FAULT.record_note(
                    0,
                    &[("outage_steps", outage_steps.max(1) as u64)],
                    "ovsdb-outage",
                );
                self.connected = false;
                self.outage_remaining = outage_steps.max(1);
                report.outages += 1;
            }
            FaultKind::SwitchRestart => {
                // Target exactly one switch — and therefore exactly one
                // shard. Every other shard's engine and device must be
                // untouched, which the step's invariants enforce.
                let sw = self.restarts % self.devices.len();
                self.restarts += 1;
                telemetry::catalogue::CHAOS_FAULT.record_note(
                    0,
                    &[("switch", sw as u64)],
                    "switch-restart",
                );
                // The switch comes back with leftover stale state the
                // controller never installed; reconciliation must purge
                // it and re-push the desired tables.
                let program = &self.program;
                let restart = |controller: &mut Controller| -> Result<SwitchDevice, String> {
                    let fresh = SwitchDevice::new(Switch::new(program.clone()));
                    fresh.write(&[Update {
                        op: WriteOp::Insert,
                        entry: TableEntry {
                            table: "InVlan".into(),
                            matches: vec![
                                FieldMatch::Exact { value: 999 },
                                FieldMatch::Exact { value: 0 },
                            ],
                            priority: 0,
                            action: "set_port_vlan".into(),
                            params: vec![77],
                        },
                    }])?;
                    controller.replace_switch(sw, Box::new(fresh.clone()))?;
                    controller.reconcile_switch(sw)?;
                    Ok(fresh)
                };
                let owner = self.shards.shard_of_switch(sw);
                self.devices[sw] = restart(self.shards.controller_mut(owner))?;
                if let Some((reference, flat_devices)) = &mut self.reference {
                    flat_devices[sw] = restart(reference)?;
                }
                report.switch_restarts += 1;
            }
            FaultKind::CrashServer { torn_tail_bytes } => {
                telemetry::catalogue::CHAOS_FAULT.record_note(
                    0,
                    &[("torn_tail_bytes", torn_tail_bytes)],
                    "crash-server",
                );
                self.crash_server(torn_tail_bytes, report)?;
            }
        }
        Ok(())
    }

    /// Abruptly kill the durable OVSDB "server", tear the WAL tail, and
    /// recover — asserting crash-equivalence at every stage:
    ///
    /// 1. recovered state == the pre-crash committed prefix (the full
    ///    committed state for a clean crash; exactly one transaction
    ///    less when the tail was torn);
    /// 2. a torn tail loses at most that single record — re-applying the
    ///    acked-but-lost transaction reproduces the pre-crash state
    ///    byte-for-byte (uuids included);
    /// 3. the controller resyncs from the recovered snapshot and the
    ///    regular invariant battery passes afterwards.
    fn crash_server(
        &mut self,
        torn_tail_bytes: u64,
        report: &mut OracleReport,
    ) -> Result<(), String> {
        let dir = self
            .durable
            .as_ref()
            .map(|d| d.0.clone())
            .ok_or("CrashServer fault on a non-durable harness")?;
        let pre_crash_index = self.db.commit_index();
        let schema = self.db.schema().clone();
        // Abrupt kill: drop the live database (open WAL handle included)
        // with no graceful shutdown, then damage the log on disk.
        let placeholder = ovsdb::Database::new(schema.clone());
        drop(std::mem::replace(&mut self.db, placeholder));
        let chopped = ovsdb::wal::tear_tail(&dir.join(ovsdb::wal::WAL_FILE), torn_tail_bytes)
            .map_err(|e| e.to_string())?;

        let (recovered, recovery) = ovsdb::Database::open(&dir, schema, oracle_durability())
            .map_err(|e| format!("crash recovery failed: {e}"))?;
        self.db = recovered;
        report.crashes += 1;

        let got = self.db.monitor_snapshot(&MONITORED)?.to_string();
        if chopped == 0 {
            // Clean crash: every committed transaction survives.
            if got != self.post_last_commit {
                return Err(format!(
                    "crash-equivalence: clean-crash recovery diverged from committed state\n\
                     recovered: {got}\ncommitted: {}",
                    self.post_last_commit
                ));
            }
            if self.db.commit_index() != pre_crash_index {
                return Err(format!(
                    "crash-equivalence: commit index {} after clean recovery, expected {pre_crash_index}",
                    self.db.commit_index()
                ));
            }
        } else {
            report.torn_tails += 1;
            if !recovery.truncated_tail {
                return Err(
                    "crash-equivalence: tail was torn but recovery saw no torn tail".into(),
                );
            }
            // Torn tail: exactly the final record is lost, nothing more.
            if got != self.pre_last_commit {
                return Err(format!(
                    "crash-equivalence: torn-tail recovery lost more (or less) than the final record\n\
                     recovered: {got}\nexpected prefix: {}",
                    self.pre_last_commit
                ));
            }
            if self.db.commit_index() + 1 != pre_crash_index {
                return Err(format!(
                    "crash-equivalence: commit index {} after torn-tail recovery, expected {}",
                    self.db.commit_index(),
                    pre_crash_index - 1
                ));
            }
            // The lost transaction was acked to the client; redo it. The
            // redo must reproduce the pre-crash state exactly — same
            // rows, same uuids — because replay determinism pins uuid
            // minting to the (restored) counters.
            let ops = self
                .last_ops
                .clone()
                .ok_or("crash-equivalence: torn tail with no transaction on record")?;
            let before = self.db.commit_index();
            let (results, _changes) = self.db.transact(&ops);
            if self.db.commit_index() == before {
                return Err(format!(
                    "crash-equivalence: redo of lost transaction aborted: {results}"
                ));
            }
            let redone = self.db.monitor_snapshot(&MONITORED)?.to_string();
            if redone != self.post_last_commit {
                return Err(format!(
                    "crash-equivalence: redone transaction diverged from pre-crash state\n\
                     redone: {redone}\npre-crash: {}",
                    self.post_last_commit
                ));
            }
            // The controller already consumed this transaction's changes
            // pre-crash, so they are deliberately not re-delivered.
        }
        // The server restarted: re-issue the monitor and resync, exactly
        // as a supervisor detecting the epoch reset would. The delta
        // should be empty (the db is back at the state the engine saw),
        // which check_invariants verifies at the end of the step.
        if self.connected {
            self.reconnect()?;
        }
        Ok(())
    }

    fn reconnect(&mut self) -> Result<(), String> {
        let initial = self.db.monitor_snapshot(&MONITORED)?;
        let tables: Vec<String> = MONITORED.iter().map(|t| t.to_string()).collect();
        if let Some((reference, _)) = &mut self.reference {
            reference.resync_from_snapshot(&initial, &tables)?;
        }
        if self.bug == Some(InjectedBug::SkipResyncDeletes) {
            // The buggy resync: each shard diffs against its slice of
            // the snapshot but only pushes the missed inserts, never the
            // missed deletes.
            let rows = ovsdb::decode_table_updates(&initial, self.db.schema())?.changes;
            let slices = self.shards.router().split_row_changes(&rows);
            for (shard, slice) in slices.into_iter().enumerate() {
                let controller = self.shards.controller_mut(shard);
                let snapshot = resync::group_inserts(controller.config_ops(&slice)?);
                let engine = controller.engine();
                let mut ops = Vec::new();
                for t in MONITORED {
                    let target = snapshot.get(t).cloned().unwrap_or_default();
                    let current = engine.dump(t).map_err(|e| e.to_string())?;
                    let (inserts, _deletes) = resync::diff_rows(&current, &target);
                    for row in inserts {
                        ops.push((t.to_string(), row, true));
                    }
                }
                controller.apply_input_ops(ops)?;
            }
        } else {
            self.shards.resync_from_snapshot(&initial, &tables)?;
        }
        self.connected = true;
        Ok(())
    }

    /// The full invariant battery. Only meaningful while the management
    /// link is up (during an outage the two sides legitimately diverge).
    fn check_invariants(&self) -> Result<(), String> {
        for (sw, device) in self.devices.iter().enumerate() {
            let at = self.at("switch", sw);
            let owner = &self.shards.controllers()[self.shards.shard_of_switch(sw)];
            // (1) Installed data-plane state identical to the baseline's,
            // on-device and as tracked by the baseline.
            let inc = installed(device);
            let (baseline, base_device) = &self.baselines[sw];
            let base = installed(base_device);
            if inc != base {
                return Err(diff_entries(
                    &format!("{at}device tables differ"),
                    &inc,
                    &base,
                ));
            }
            let base_tracked = baseline.installed_snapshot();
            if base != base_tracked {
                return Err(diff_entries(
                    &format!("{at}baseline device diverged from its own bookkeeping"),
                    &base,
                    &base_tracked,
                ));
            }
            // (2) Every installed entry is traceable to an
            // output-relation tuple: the device holds exactly its
            // controller's desired set.
            let desired = owner.desired_entries(sw)?;
            if inc != desired {
                return Err(diff_entries(
                    &format!("{at}device tables differ from engine output relations"),
                    &inc,
                    &desired,
                ));
            }
            // (3) Multicast groups agree everywhere.
            let groups = device.mcast_snapshot();
            let mut views: Vec<(&str, Groups)> = vec![
                ("controller replication state", owner.mcast_snapshot(sw)),
                ("baseline groups", baseline.mcast_snapshot()),
            ];
            // (N > 1) The unsharded reference programs this switch
            // identically, from its own desired set.
            if let Some((reference, flat_devices)) = &self.reference {
                let flat = installed(&flat_devices[sw]);
                if inc != flat {
                    return Err(diff_entries(
                        &format!("{at}sharded device != unsharded device"),
                        &inc,
                        &flat,
                    ));
                }
                let flat_desired = reference.desired_entries(sw)?;
                if flat != flat_desired {
                    return Err(diff_entries(
                        &format!("{at}unsharded engine's desired set differs from device"),
                        &flat,
                        &flat_desired,
                    ));
                }
                views.push(("unsharded replication state", reference.mcast_snapshot(sw)));
            }
            for (label, got) in &views {
                if &groups != got {
                    return Err(format!(
                        "{at}multicast groups: device {groups:?} != {label} {got:?}"
                    ));
                }
            }
            // (4) The device matches the pure-function specification,
            // tables and multicast groups.
            self.model.check_device(sw, device, &at)?;
        }
        // (5) The unsharded engine's input relations mirror the database
        // exactly — at N = 1 that engine is the single shard.
        let shard_ctls = self.shards.controllers();
        let flat = self.reference.as_ref().map_or(&shard_ctls[0], |(c, _)| c);
        let initial = self.db.monitor_snapshot(&MONITORED)?;
        let rows = ovsdb::decode_table_updates(&initial, self.db.schema())?.changes;
        let snapshot = resync::group_inserts(flat.config_ops(&rows)?);
        let engine = flat.engine();
        for t in MONITORED {
            let target = snapshot.get(t).cloned().unwrap_or_default();
            let current = engine.dump(t).map_err(|e| e.to_string())?;
            let (inserts, deletes) = resync::diff_rows(&current, &target);
            if !inserts.is_empty() || !deletes.is_empty() {
                return Err(format!(
                    "engine input relation {t} out of sync with OVSDB: \
                     missing {inserts:?}, stale {deletes:?}"
                ));
            }
        }
        let names: Vec<String> = engine
            .relation_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        // (N > 1) Union of shard engines == unsharded engine, relation
        // by relation — inputs (partitioned and broadcast alike) and
        // every derived table.
        if self.reference.is_some() {
            for rel in &names {
                let union = self.shards.union_dump(rel)?;
                let flat: BTreeSet<Vec<ddlog::Value>> = engine
                    .dump(rel)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .collect();
                if union != flat {
                    let extra: Vec<_> = union.difference(&flat).collect();
                    let missing: Vec<_> = flat.difference(&union).collect();
                    return Err(format!(
                        "relation {rel}: shard union diverges from unsharded engine: \
                         extra {extra:?}, missing {missing:?}"
                    ));
                }
            }
        }
        // (6) No non-positive Z-set weights anywhere in a shard engine.
        for (shard, controller) in shard_ctls.iter().enumerate() {
            let at = self.at("shard", shard);
            for rel in &names {
                let weights = controller.engine().dump_weights(rel);
                for (row, w) in weights.map_err(|e| e.to_string())? {
                    if w <= 0 {
                        return Err(format!(
                            "{at}relation {rel}: row {row:?} has non-positive weight {w}"
                        ));
                    }
                }
            }
        }
        // (7) OVSDB uniqueness indexes are intact (schema declares
        // Port.id and Switch.idx unique).
        for (table, col) in [("Port", "id"), ("Switch", "idx")] {
            let mut seen = BTreeSet::new();
            for (uuid, row) in self.db.rows(table) {
                let key = row
                    .get(col)
                    .map(|d| d.to_json().to_string())
                    .unwrap_or_default();
                if !seen.insert(key.clone()) {
                    return Err(format!(
                        "OVSDB index violation: duplicate {table}.{col}={key} (row {uuid:?})"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Render the work profile of each shard engine's most recent
    /// commit: totals plus the hottest operators, for failure reports.
    fn profile_snapshot(&self) -> Option<String> {
        let shard_ctls = self.shards.controllers();
        let mut out = String::new();
        for (shard, controller) in shard_ctls.iter().enumerate() {
            let engine = controller.engine();
            let Some(profile) = engine.last_profile() else {
                continue;
            };
            out.push_str(&format!(
                "{}last commit: {} input tuples, {} tuples processed, {} ns\n",
                self.at("shard", shard),
                profile.input_tuples,
                profile.total_tuples(),
                profile.total_wall_ns
            ));
            for id in profile.hottest(5) {
                let meta = &engine.op_catalog().ops[id];
                let s = &profile.stats[id];
                out.push_str(&format!(
                    "  [{id:3}] {:9} {:24} in={} out={} peak={}\n",
                    meta.kind.name(),
                    meta.detail,
                    s.tuples_in,
                    s.tuples_out,
                    s.peak
                ));
            }
        }
        (!out.is_empty()).then_some(out)
    }

    /// Explain the first diverging tuple through the provenance engine
    /// of the shard that owns its switch: a stale installed entry gets
    /// its `why` tree (which base fact still supports it); a missing one
    /// gets a `why_not` report (which literal blocks the derivation).
    /// `None` when every data plane matches the spec (the failure was
    /// some other invariant).
    fn why_snapshot(&self) -> Option<String> {
        // (heading of the explanation, what to say when there is none)
        const STALE: (&str, &str) = (
            "why the engine still derives it",
            "not resolvable through the engine",
        );
        const MISSING: (&str, &str) = ("why the engine does not derive it", "why_not unavailable");
        let explain =
            |what: String, (how, unavailable): (&str, &str), tree: Result<String, String>| {
                let tree = match tree {
                    Ok(tree) => format!("{how}:\n{tree}"),
                    Err(e) => format!("({unavailable}: {e})\n"),
                };
                format!("first diverging tuple: {what}\n{tree}")
            };
        for (sw, device) in self.devices.iter().enumerate() {
            let at = self.at("switch", sw);
            let owner = &self.shards.controllers()[self.shards.shard_of_switch(sw)];
            let inc = installed(device);
            let (spec, spec_groups) = self.model.spec(sw);
            if let Some(extra) = inc.difference(&spec).next() {
                let tree = owner.why_entry(sw, extra).map(|t| t.render_text());
                return Some(explain(
                    format!("{at}stale installed entry {extra:?}"),
                    STALE,
                    tree,
                ));
            }
            if let Some(missing) = spec.difference(&inc).next() {
                let report = owner.why_not_entry(sw, missing).map(|r| r.render_text());
                return Some(explain(
                    format!("{at}missing entry {missing:?}"),
                    MISSING,
                    report,
                ));
            }
            // Table entries agree; check multicast membership.
            let inc_groups = device.mcast_snapshot();
            let absent = |from: &Groups, group: &u16, port: &u16| {
                !from.get(group).is_some_and(|ports| ports.contains(port))
            };
            let members = |groups: &Groups| -> Vec<(u16, u16)> {
                let pairs = groups.iter();
                pairs
                    .flat_map(|(g, ports)| ports.iter().map(|p| (*g, *p)))
                    .collect()
            };
            if let Some((group, port)) = members(&inc_groups)
                .into_iter()
                .find(|(g, p)| absent(&spec_groups, g, p))
            {
                let tree = owner.why_mcast(sw, group, port).map(|t| t.render_text());
                return Some(explain(
                    format!("{at}stale mcast member (group {group}, port {port})"),
                    STALE,
                    tree,
                ));
            }
            if let Some((group, port)) = members(&spec_groups)
                .into_iter()
                .find(|(g, p)| absent(&inc_groups, g, p))
            {
                let row = vec![
                    ddlog::Value::bit(16, group as u128),
                    ddlog::Value::bit(16, port as u128),
                ];
                let report = owner.engine().why_not("MulticastGroup", row);
                return Some(explain(
                    format!("{at}missing mcast member (group {group}, port {port})"),
                    MISSING,
                    report.map(|r| r.render_text()).map_err(|e| e.to_string()),
                ));
            }
        }
        None
    }

    /// A failed step with its explanations attached: the shard engines'
    /// work profiles, and — when `diverged` (an invariant broke, not an
    /// operation) — the why-dump of the first diverging tuple.
    fn failure(
        &self,
        step: usize,
        op: Option<&WorkloadOp>,
        reason: String,
        diverged: bool,
    ) -> StepFailure {
        StepFailure {
            step,
            op: op.cloned(),
            reason,
            work_profile: self.profile_snapshot(),
            why_dump: if diverged { self.why_snapshot() } else { None },
        }
    }
}

/// Run an explicit op sequence under `cfg` (shard count, faults and bugs
/// taken from `cfg`; `cfg.seed`/`cfg.steps` are ignored in favor of
/// `ops`). This is the deterministic core [`run_oracle`] and the
/// shrinker share.
pub fn run_workload(ops: &[WorkloadOp], cfg: &OracleConfig) -> Result<OracleReport, StepFailure> {
    run_workload_inner(ops, cfg).map(|(report, _)| report)
}

fn run_workload_inner(
    ops: &[WorkloadOp],
    cfg: &OracleConfig,
) -> Result<(OracleReport, Harness), StepFailure> {
    let plan = match cfg.chaos {
        Some(chaos_seed) if cfg.crashes => {
            FaultPlan::from_chaos_seed_with_crashes(chaos_seed, ops.len())
        }
        Some(chaos_seed) => FaultPlan::from_chaos_seed(chaos_seed, ops.len()),
        None => FaultPlan::default(),
    };
    let mut harness = Harness::new(cfg, plan.has_crashes()).map_err(|reason| StepFailure {
        step: 0,
        op: None,
        reason,
        work_profile: None,
        why_dump: None,
    })?;
    let mut report = OracleReport::default();
    let mut next_fault = 0usize;

    for (step, op) in ops.iter().enumerate() {
        while next_fault < plan.events.len() && plan.events[next_fault].at_step == step {
            let kind = plan.events[next_fault].kind;
            next_fault += 1;
            harness
                .inject_fault(kind, &mut report)
                .map_err(|reason| harness.failure(step, None, reason, false))?;
        }
        harness
            .step(op)
            .map_err(|reason| harness.failure(step, Some(op), reason, false))?;
        if !harness.connected {
            harness.outage_remaining -= 1;
            if harness.outage_remaining == 0 {
                harness.reconnect().map_err(|reason| {
                    harness.failure(step, Some(op), format!("resync failed: {reason}"), false)
                })?;
            }
        }
        if harness.connected {
            harness
                .check_invariants()
                .map_err(|reason| harness.failure(step, Some(op), reason, true))?;
        }
        report.steps += 1;
    }

    // A run may end mid-outage; converge before the final verdict.
    if !harness.connected {
        harness.reconnect().map_err(|reason| {
            harness.failure(
                ops.len(),
                None,
                format!("final resync failed: {reason}"),
                false,
            )
        })?;
        harness
            .check_invariants()
            .map_err(|reason| harness.failure(ops.len(), None, reason, true))?;
    }

    report.final_entries = harness.devices.iter().map(|d| installed(d).len()).sum();
    report.final_groups = harness
        .devices
        .iter()
        .map(|d| d.mcast_snapshot().len())
        .sum();
    report.transactions = harness.shards.transactions();
    Ok((report, harness))
}

/// The converged data-plane state, per switch: installed table entries
/// plus multicast group membership.
pub type FinalState = Vec<(BTreeSet<TableEntry>, BTreeMap<u16, BTreeSet<u16>>)>;

/// The converged data-plane state after a full run (tables + groups of
/// every switch) — used to assert that a faulty run ends exactly where
/// the fault-free run with the same workload seed ends.
pub fn final_state(cfg: &OracleConfig) -> Result<FinalState, StepFailure> {
    let ops = crate::workload::generate_workload(cfg.seed, cfg.steps);
    let (_, harness) = run_workload_inner(&ops, cfg)?;
    let state = harness.devices.iter();
    Ok(state.map(|d| (installed(d), d.mcast_snapshot())).collect())
}

/// Snapshot the flight recorder to a `.nfr` dump: into the armed
/// directory if one exists (an explicit arm or `NERPA_FLIGHT_DIR`),
/// otherwise into a temp fallback — an oracle counterexample always
/// ships its black box.
pub(crate) fn dump_flight_recorder(reason: &str) -> Option<std::path::PathBuf> {
    let recorder = &telemetry::global().recorder;
    let dir = recorder
        .armed_dir()
        .unwrap_or_else(|| std::env::temp_dir().join("nerpa-dumps"));
    recorder.dump_into(&dir, "oracle-failure", reason).ok()
}

/// Generate the workload for `cfg`, run it, and on failure shrink it to
/// a minimal reproducing sequence. The failure is boxed: it carries the
/// shrunk workload, a metrics snapshot, and the failing trace.
pub fn run_oracle(cfg: &OracleConfig) -> Result<OracleReport, Box<OracleFailure>> {
    let ops = crate::workload::generate_workload(cfg.seed, cfg.steps);
    match run_workload(&ops, cfg) {
        Ok(report) => Ok(report),
        Err(failure) => {
            // Snapshot observability state now: the ddmin re-runs below
            // replay the workload many times and overwrite both the
            // published series and the flight rings the trace derives
            // from.
            let metrics_snapshot = telemetry::global().registry.render_text();
            let failing_trace = telemetry::global().traces().pop().map(|t| t.render_text());
            let dump_path = dump_flight_recorder(&failure.reason);
            let shrunk =
                crate::shrink::ddmin(&ops, |candidate| run_workload(candidate, cfg).is_err());
            Err(Box::new(OracleFailure {
                failure,
                original_len: ops.len(),
                shrunk,
                metrics_snapshot,
                failing_trace,
                dump_path,
            }))
        }
    }
}
