//! The lockstep differential harness.
//!
//! Two controllers consume the same workload:
//!
//! * the **incremental** side is the real pipeline — an
//!   [`ovsdb::Database`], a [`nerpa::Controller`] holding the snvs DDlog
//!   program, and a [`p4sim::service::SwitchDevice`];
//! * the **baseline** side is [`baselines::FullRecompute`] reconciling
//!   its own `SwitchDevice` from a plain-Rust model of the management
//!   state.
//!
//! After every step (while the management link is up) the harness
//! asserts the two data planes are identical and that the cross-plane
//! invariants hold: engine inputs mirror the database, every installed
//! entry is traceable to an output-relation tuple, no Z-set weight is
//! non-positive, and the database's uniqueness indexes are intact.

use std::collections::{BTreeMap, BTreeSet};

use baselines::{FullRecompute, LearnedMac, Mode, PortConfig};
use nerpa::codegen::CodegenOptions;
use nerpa::controller::{Controller, NerpaProgram};
use nerpa::resync;
use ovsdb::db::RowChange;
use p4sim::runtime::{Digest, FieldMatch, TableEntry, Update, WriteOp};
use p4sim::service::SwitchDevice;
use p4sim::Switch;
use serde_json::json;

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
    /// When non-zero, run the sharded harness instead
    /// ([`crate::sharded::run_sharded_oracle`]): a `ShardSet` of this
    /// many engines over as many switches, checked for cross-shard
    /// equivalence against one unsharded controller and the
    /// full-recompute spec at every step.
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
            shards: 0,
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
    /// Inspect with `nerpa-flight show`.
    pub dump_path: Option<std::path::PathBuf>,
}

const MONITORED: [&str; 2] = ["Port", "Switch"];

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
    controller: Controller,
    device: SwitchDevice,
    program: p4sim::ast::Program,
    baseline: FullRecompute,
    base_device: SwitchDevice,
    ports: Vec<PortConfig>,
    macs: Vec<LearnedMac>,
    live_macs: BTreeSet<(u16, u64, u16)>,
    connected: bool,
    outage_remaining: usize,
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
    fn new(bug: Option<InjectedBug>, durable: bool) -> Result<Harness, String> {
        let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA)?;
        let program = p4sim::parse_p4(snvs::assets::SNVS_P4).map_err(|e| e.to_string())?;
        let nerpa_program = NerpaProgram {
            schema: schema.clone(),
            p4info: p4sim::P4Info::from_program(&program),
            rules: snvs::assets::SNVS_RULES.to_string(),
            options: CodegenOptions { per_switch: true },
        };
        let mut controller = Controller::new(&nerpa_program)?;
        // Every oracle step also audits incrementality: commit work must
        // stay proportional to the input + output deltas. Generous
        // budget — DRed on MAC-learning churn legitimately over-deletes.
        controller.set_work_audit(Some(ddlog::AuditConfig {
            ratio: 64,
            slack: 4096,
        }));
        if bug == Some(InjectedBug::StaleArrangement) {
            controller.inject_stale_arrangement(true);
        }
        let device = SwitchDevice::new(Switch::new(program.clone()));
        controller.add_switch(Box::new(device.clone()));
        let (db, durable) = if durable {
            let dir = DurableDir::new();
            let (db, _) = ovsdb::Database::open(&dir.0, schema, oracle_durability())
                .map_err(|e| e.to_string())?;
            (db, Some(dir))
        } else {
            (ovsdb::Database::new(schema), None)
        };
        let base_device = SwitchDevice::new(Switch::new(program.clone()));
        let mut harness = Harness {
            db,
            controller,
            device,
            program,
            baseline: FullRecompute::new(),
            base_device,
            ports: Vec::new(),
            macs: Vec::new(),
            live_macs: BTreeSet::new(),
            connected: true,
            outage_remaining: 0,
            bug,
            durable,
            pre_last_commit: String::new(),
            post_last_commit: String::new(),
            last_ops: None,
        };
        harness.pre_last_commit = harness.db.monitor_snapshot(&MONITORED)?.to_string();
        harness.post_last_commit = harness.pre_last_commit.clone();
        let changes = harness.commit(json!([
            {"op": "insert", "table": "Switch", "row": {"idx": 0}}
        ]))?;
        harness.controller.handle_row_changes(&changes)?;
        Ok(harness)
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

    /// Feed committed row changes to the controller, through the
    /// injected bug filter if one is armed.
    fn deliver(&mut self, changes: &[RowChange]) -> Result<(), String> {
        if !self.connected {
            return Ok(()); // the monitor link is down: updates are lost
        }
        if self.bug == Some(InjectedBug::DropConfigDeletes) {
            let kept: Vec<RowChange> = changes
                .iter()
                .filter(|c| c.new.is_some())
                .cloned()
                .collect();
            self.controller.handle_row_changes(&kept)?;
        } else {
            self.controller.handle_row_changes(changes)?;
        }
        Ok(())
    }

    fn port_row_json(cfg: &PortConfig) -> serde_json::Value {
        let mirror: Vec<u16> = cfg.mirror.into_iter().collect();
        match &cfg.mode {
            Mode::Access(v) => json!({
                "id": cfg.id,
                "vlan_mode": "access",
                "tag": v,
                "trunks": ["set", []],
                "mirror_dst": ["set", mirror],
            }),
            Mode::Trunk(vs) => json!({
                "id": cfg.id,
                "vlan_mode": "trunk",
                "trunks": ["set", vs],
                "mirror_dst": ["set", mirror],
            }),
        }
    }

    /// Upsert a port in the database and the plain model.
    fn upsert_port(&mut self, cfg: PortConfig) -> Result<(), String> {
        let row = Self::port_row_json(&cfg);
        let changes = self.commit(json!([
            {"op": "delete", "table": "Port", "where": [["id", "==", cfg.id]]},
            {"op": "insert", "table": "Port", "row": row},
        ]))?;
        self.deliver(&changes)?;
        self.ports.retain(|p| p.id != cfg.id);
        self.ports.push(cfg);
        Ok(())
    }

    fn remove_port(&mut self, id: u16) -> Result<(), String> {
        let changes = self.commit(json!([
            {"op": "delete", "table": "Port", "where": [["id", "==", id]]},
        ]))?;
        self.deliver(&changes)?;
        self.ports.retain(|p| p.id != id);
        Ok(())
    }

    fn digest(port: u16, mac: u64, vlan: u16) -> Digest {
        Digest {
            name: "mac_learn_t".into(),
            fields: vec![
                ("port".into(), port as u128),
                ("mac".into(), mac as u128),
                ("vlan".into(), vlan as u128),
            ],
        }
    }

    fn apply(&mut self, op: &WorkloadOp) -> Result<(), String> {
        match op {
            WorkloadOp::AddAccess { port, vlan } => {
                self.upsert_port(PortConfig::access(*port, *vlan))?;
            }
            WorkloadOp::AddTrunk { port, vlans } => {
                self.upsert_port(PortConfig::trunk(*port, vlans.clone()))?;
            }
            WorkloadOp::FlipMode { port } => {
                let Some(cur) = self.ports.iter().find(|p| p.id == *port).cloned() else {
                    return Ok(());
                };
                let mut next = match &cur.mode {
                    Mode::Access(v) => PortConfig::trunk(cur.id, vec![*v]),
                    Mode::Trunk(vs) => {
                        PortConfig::access(cur.id, vs.first().copied().unwrap_or(10))
                    }
                };
                next.mirror = cur.mirror;
                self.upsert_port(next)?;
            }
            WorkloadOp::SetMirror { port, dst } => {
                let Some(mut cur) = self.ports.iter().find(|p| p.id == *port).cloned() else {
                    return Ok(());
                };
                cur.mirror = Some(*dst);
                self.upsert_port(cur)?;
            }
            WorkloadOp::ClearMirror { port } => {
                let Some(mut cur) = self.ports.iter().find(|p| p.id == *port).cloned() else {
                    return Ok(());
                };
                cur.mirror = None;
                self.upsert_port(cur)?;
            }
            WorkloadOp::RemovePort { port } => {
                self.remove_port(*port)?;
            }
            WorkloadOp::Learn { port, mac, vlan } => {
                if !self.live_macs.insert((*port, *mac, *vlan)) {
                    return Ok(()); // already learned: the switch dedups
                }
                self.controller
                    .handle_digests(0, &[Self::digest(*port, *mac, *vlan)])?;
                self.macs.push(LearnedMac {
                    port: *port,
                    mac: *mac,
                    vlan: *vlan,
                });
            }
            WorkloadOp::Age { pick } => {
                if self.live_macs.is_empty() {
                    return Ok(());
                }
                let idx = (*pick as usize) % self.live_macs.len();
                let (port, mac, vlan) = *self.live_macs.iter().nth(idx).expect("non-empty");
                self.live_macs.remove(&(port, mac, vlan));
                self.controller
                    .retract_digests(0, &[Self::digest(port, mac, vlan)])?;
                self.macs
                    .retain(|m| (m.port, m.mac, m.vlan) != (port, mac, vlan));
            }
        }
        // The baseline recomputes its whole desired state on every
        // change and pushes the diff to its own switch.
        let (updates, mcast) = self.baseline.reconcile(&self.ports, &self.macs);
        self.base_device.write(&updates)?;
        for (group, members) in mcast {
            self.base_device.set_mcast_group(group, members);
        }
        Ok(())
    }

    fn inject_fault(&mut self, kind: FaultKind, report: &mut OracleReport) -> Result<(), String> {
        match kind {
            FaultKind::OvsdbOutage { outage_steps } => {
                telemetry::record_event_note(
                    telemetry::Plane::Chaos,
                    "chaos.fault",
                    0,
                    &[("outage_steps", outage_steps.max(1) as u64)],
                    "ovsdb-outage",
                );
                self.connected = false;
                self.outage_remaining = outage_steps.max(1);
                report.outages += 1;
            }
            FaultKind::SwitchRestart => {
                telemetry::record_event_note(
                    telemetry::Plane::Chaos,
                    "chaos.fault",
                    0,
                    &[("switch", 0)],
                    "switch-restart",
                );
                // The switch comes back with leftover stale state the
                // controller never installed; reconciliation must purge
                // it and re-push the desired tables.
                let fresh = SwitchDevice::new(Switch::new(self.program.clone()));
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
                self.controller.replace_switch(0, Box::new(fresh.clone()))?;
                self.controller.reconcile_switch(0)?;
                self.device = fresh;
                report.switch_restarts += 1;
            }
            FaultKind::CrashServer { torn_tail_bytes } => {
                telemetry::record_event_note(
                    telemetry::Plane::Chaos,
                    "chaos.fault",
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
        if self.bug == Some(InjectedBug::SkipResyncDeletes) {
            // The buggy resync: diff against the snapshot but only push
            // the missed inserts, never the missed deletes.
            let snapshot = {
                let engine = self.controller.engine();
                let rel_types = |name: &str| engine.relation_types(name);
                resync::snapshot_rows(&initial, self.db.schema(), &rel_types)?
            };
            let mut ops = Vec::new();
            for t in MONITORED {
                let target = snapshot.get(t).cloned().unwrap_or_default();
                let current = self
                    .controller
                    .engine()
                    .dump(t)
                    .map_err(|e| e.to_string())?;
                let (inserts, _deletes) = resync::diff_rows(&current, &target);
                for row in inserts {
                    ops.push((t.to_string(), row, true));
                }
            }
            self.controller.apply_input_ops(ops)?;
        } else {
            let tables: Vec<String> = MONITORED.iter().map(|t| t.to_string()).collect();
            self.controller.resync_from_snapshot(&initial, &tables)?;
        }
        self.connected = true;
        Ok(())
    }

    fn installed(device: &SwitchDevice) -> BTreeSet<TableEntry> {
        device
            .read_all_tables()
            .into_iter()
            .flat_map(|(_, entries)| entries)
            .collect()
    }

    /// The full invariant battery. Only meaningful while the management
    /// link is up (during an outage the two sides legitimately diverge).
    fn check_invariants(&self) -> Result<(), String> {
        // (1) Installed data-plane state identical across the two
        // controllers, on-device and as tracked by the baseline.
        let inc = Self::installed(&self.device);
        let base = Self::installed(&self.base_device);
        if inc != base {
            return Err(diff_entries("device tables differ", &inc, &base));
        }
        let base_tracked = self.baseline.installed_snapshot();
        if base != base_tracked {
            return Err(diff_entries(
                "baseline device diverged from its own bookkeeping",
                &base,
                &base_tracked,
            ));
        }
        // (2) Both match the pure-function specification.
        let (spec_entries, spec_groups) = FullRecompute::desired_state(&self.ports, &self.macs);
        let spec: BTreeSet<TableEntry> = spec_entries.into_iter().collect();
        if inc != spec {
            return Err(diff_entries(
                "installed state differs from spec",
                &inc,
                &spec,
            ));
        }
        // (3) Every installed entry is traceable to an output-relation
        // tuple: the device holds exactly the controller's desired set.
        let desired = self.controller.desired_entries(0)?;
        if inc != desired {
            return Err(diff_entries(
                "device tables differ from engine output relations",
                &inc,
                &desired,
            ));
        }
        // (4) Multicast groups agree everywhere.
        let inc_groups = self.device.mcast_snapshot();
        let ctl_groups = self.controller.mcast_snapshot(0);
        let base_groups = self.baseline.mcast_snapshot();
        let spec_groups: BTreeMap<u16, BTreeSet<u16>> = spec_groups
            .into_iter()
            .filter(|(_, m)| !m.is_empty())
            .collect();
        for (label, got) in [
            ("controller replication state", &ctl_groups),
            ("baseline groups", &base_groups),
            ("spec groups", &spec_groups),
        ] {
            if &inc_groups != got {
                return Err(format!(
                    "multicast groups: device {inc_groups:?} != {label} {got:?}"
                ));
            }
        }
        // (5) Engine input relations mirror the database exactly.
        let initial = self.db.monitor_snapshot(&MONITORED)?;
        let engine = self.controller.engine();
        let rel_types = |name: &str| engine.relation_types(name);
        let snapshot = resync::snapshot_rows(&initial, self.db.schema(), &rel_types)?;
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
        // (6) No non-positive Z-set weights anywhere in the engine.
        let names: Vec<String> = engine
            .relation_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for rel in names {
            for (row, w) in engine.dump_weights(&rel).map_err(|e| e.to_string())? {
                if w <= 0 {
                    return Err(format!(
                        "relation {rel}: row {row:?} has non-positive weight {w}"
                    ));
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
}

fn diff_entries(label: &str, a: &BTreeSet<TableEntry>, b: &BTreeSet<TableEntry>) -> String {
    let only_a: Vec<&TableEntry> = a.difference(b).collect();
    let only_b: Vec<&TableEntry> = b.difference(a).collect();
    format!("{label}: extra {only_a:?}, missing {only_b:?}")
}

/// Run an explicit op sequence under `cfg` (faults and bugs taken from
/// `cfg`; `cfg.seed`/`cfg.steps` are ignored in favor of `ops`). This is
/// the deterministic core [`run_oracle`] and the shrinker share.
pub fn run_workload(ops: &[WorkloadOp], cfg: &OracleConfig) -> Result<OracleReport, StepFailure> {
    run_workload_inner(ops, cfg).map(|(report, _)| report)
}

/// Render the work profile of the harness engine's most recent commit:
/// totals plus the hottest operators, for failure reports.
fn profile_snapshot(harness: &Harness) -> Option<String> {
    let engine = harness.controller.engine();
    let profile = engine.last_profile()?;
    let catalog = engine.op_catalog();
    let mut out = format!(
        "last commit: {} input tuples, {} tuples processed, {} ns\n",
        profile.input_tuples,
        profile.total_tuples(),
        profile.total_wall_ns
    );
    for id in profile.hottest(5) {
        let meta = &catalog.ops[id];
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
    Some(out)
}

/// Explain the first diverging tuple through the provenance engine:
/// a stale installed entry gets its `why` tree (which base fact still
/// supports it); a missing one gets a `why_not` report (which literal
/// blocks the derivation). `None` when the data plane matches the spec
/// (the failure was some other invariant).
fn why_snapshot(harness: &Harness) -> Option<String> {
    let inc = Harness::installed(&harness.device);
    let (spec_entries, spec_groups) = FullRecompute::desired_state(&harness.ports, &harness.macs);
    let spec: BTreeSet<TableEntry> = spec_entries.into_iter().collect();
    if let Some(extra) = inc.difference(&spec).next() {
        let mut out = format!("first diverging tuple: stale installed entry {extra:?}\n");
        match harness.controller.why_entry(0, extra) {
            Ok(tree) => {
                out.push_str("why the engine still derives it:\n");
                out.push_str(&tree.render_text());
            }
            Err(e) => out.push_str(&format!("(not resolvable through the engine: {e})\n")),
        }
        return Some(out);
    }
    if let Some(missing) = spec.difference(&inc).next() {
        let mut out = format!("first diverging tuple: missing entry {missing:?}\n");
        match harness.controller.why_not_entry(0, missing) {
            Ok(report) => {
                out.push_str("why the engine does not derive it:\n");
                out.push_str(&report.render_text());
            }
            Err(e) => out.push_str(&format!("(why_not unavailable: {e})\n")),
        }
        return Some(out);
    }
    // Table entries agree; check multicast membership against the spec.
    let inc_groups = harness.device.mcast_snapshot();
    let spec_groups: BTreeMap<u16, BTreeSet<u16>> = spec_groups
        .into_iter()
        .filter(|(_, m)| !m.is_empty())
        .collect();
    for (group, ports) in &inc_groups {
        let expected = spec_groups.get(group);
        if let Some(port) = ports
            .iter()
            .find(|p| !expected.is_some_and(|e| e.contains(p)))
        {
            let mut out =
                format!("first diverging tuple: stale mcast member (group {group}, port {port})\n");
            match harness.controller.why_mcast(0, *group, *port) {
                Ok(tree) => {
                    out.push_str("why the engine still derives it:\n");
                    out.push_str(&tree.render_text());
                }
                Err(e) => out.push_str(&format!("(not resolvable through the engine: {e})\n")),
            }
            return Some(out);
        }
    }
    for (group, ports) in &spec_groups {
        let installed = inc_groups.get(group);
        if let Some(port) = ports
            .iter()
            .find(|p| !installed.is_some_and(|i| i.contains(p)))
        {
            let mut out = format!(
                "first diverging tuple: missing mcast member (group {group}, port {port})\n"
            );
            let row = vec![
                ddlog::Value::bit(16, *group as u128),
                ddlog::Value::bit(16, *port as u128),
            ];
            match harness.controller.engine().why_not("MulticastGroup", row) {
                Ok(report) => {
                    out.push_str("why the engine does not derive it:\n");
                    out.push_str(&report.render_text());
                }
                Err(e) => out.push_str(&format!("(why_not unavailable: {e})\n")),
            }
            return Some(out);
        }
    }
    None
}

fn run_workload_inner(
    ops: &[WorkloadOp],
    cfg: &OracleConfig,
) -> Result<(OracleReport, Harness), StepFailure> {
    let setup_err = |reason: String| StepFailure {
        step: 0,
        op: None,
        reason,
        work_profile: None,
        why_dump: None,
    };
    let plan = match cfg.chaos {
        Some(chaos_seed) if cfg.crashes => {
            FaultPlan::from_chaos_seed_with_crashes(chaos_seed, ops.len())
        }
        Some(chaos_seed) => FaultPlan::from_chaos_seed(chaos_seed, ops.len()),
        None => FaultPlan::default(),
    };
    let mut harness = Harness::new(cfg.bug, plan.has_crashes()).map_err(setup_err)?;
    let mut report = OracleReport::default();
    let mut next_fault = 0usize;

    for (step, op) in ops.iter().enumerate() {
        while next_fault < plan.events.len() && plan.events[next_fault].at_step == step {
            let kind = plan.events[next_fault].kind;
            next_fault += 1;
            if let Err(reason) = harness.inject_fault(kind, &mut report) {
                return Err(StepFailure {
                    step,
                    op: None,
                    reason,
                    work_profile: profile_snapshot(&harness),
                    why_dump: None,
                });
            }
        }
        if let Err(reason) = harness.apply(op) {
            return Err(StepFailure {
                step,
                op: Some(op.clone()),
                reason,
                work_profile: profile_snapshot(&harness),
                why_dump: None,
            });
        }
        if !harness.connected {
            harness.outage_remaining -= 1;
            if harness.outage_remaining == 0 {
                if let Err(reason) = harness.reconnect() {
                    return Err(StepFailure {
                        step,
                        op: Some(op.clone()),
                        reason: format!("resync failed: {reason}"),
                        work_profile: profile_snapshot(&harness),
                        why_dump: None,
                    });
                }
            }
        }
        if harness.connected {
            if let Err(reason) = harness.check_invariants() {
                return Err(StepFailure {
                    step,
                    op: Some(op.clone()),
                    reason,
                    work_profile: profile_snapshot(&harness),
                    why_dump: why_snapshot(&harness),
                });
            }
        }
        report.steps += 1;
    }

    // A run may end mid-outage; converge before the final verdict.
    if !harness.connected {
        if let Err(reason) = harness.reconnect() {
            return Err(StepFailure {
                step: ops.len(),
                op: None,
                reason: format!("final resync failed: {reason}"),
                work_profile: profile_snapshot(&harness),
                why_dump: None,
            });
        }
        if let Err(reason) = harness.check_invariants() {
            return Err(StepFailure {
                step: ops.len(),
                op: None,
                reason,
                work_profile: profile_snapshot(&harness),
                why_dump: why_snapshot(&harness),
            });
        }
    }

    report.final_entries = Harness::installed(&harness.device).len();
    report.final_groups = harness.device.mcast_snapshot().len();
    report.transactions = harness.controller.metrics.transactions.get();
    Ok((report, harness))
}

/// The converged data-plane state: installed table entries plus
/// multicast group membership.
pub type FinalState = (BTreeSet<TableEntry>, BTreeMap<u16, BTreeSet<u16>>);

/// The converged data-plane state after a full run (tables + groups) —
/// used to assert that a faulty run ends exactly where the fault-free
/// run with the same workload seed ends.
pub fn final_state(cfg: &OracleConfig) -> Result<FinalState, StepFailure> {
    let ops = crate::workload::generate_workload(cfg.seed, cfg.steps);
    let (_, harness) = run_workload_inner(&ops, cfg)?;
    Ok((
        Harness::installed(&harness.device),
        harness.device.mcast_snapshot(),
    ))
}

/// Snapshot the flight recorder to a `.nfr` dump: into the armed
/// directory if one exists (an explicit arm or `NERPA_FLIGHT_DIR`),
/// otherwise into a temp fallback — an oracle counterexample always
/// ships its black box.
pub(crate) fn dump_flight_recorder(reason: &str) -> Option<std::path::PathBuf> {
    let recorder = &telemetry::global().recorder;
    let dir = recorder
        .armed_dir()
        .unwrap_or_else(|| std::env::temp_dir().join("nerpa-flight"));
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
            // published series, the trace ring, and the flight rings.
            let metrics_snapshot = telemetry::global().registry.render_text();
            let failing_trace = telemetry::global().tracer.last().map(|t| t.render_text());
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
