//! The overload oracle (`--chaos-stall`): end-to-end proof that stalls
//! and slow consumers are *survivable* faults.
//!
//! Two phases, both asserting convergence back to the fault-free state:
//!
//! 1. **Stalled switch mid-churn.** A two-shard [`ShardRuntime`] drives
//!    one switch over real TCP through a [`chaos::FaultProxy`] whose
//!    schedule freezes the control connection (a [`chaos` Stall]: bytes
//!    stop, the socket stays open) partway into a seeded workload. The
//!    push-deadline watchdog must fire — supersede the stuck writer,
//!    poison the switch, respawn — while the *other* shard keeps
//!    committing. After severing the wedged link, a supervisor-style
//!    resync + replace + reconcile must restore exactly the state a
//!    fault-free run would have installed, with every queue's high-water
//!    mark inside its configured cap.
//!
//! 2. **Slow monitor subscriber.** A real [`ovsdb::Server`] with a
//!    small bounded outbox fans updates out to healthy monitors and one
//!    subscriber that never reads. The slow one must be evicted (not
//!    buffered without bound), healthy monitors must keep receiving,
//!    and the evicted client's reconnect + fresh monitor snapshot must
//!    equal the database — proving eviction loses the subscriber no
//!    state it cannot recover.
//!
//! [`chaos` Stall]: chaos::FaultKind::Stall

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use baselines::PortConfig;
use chaos::{FaultKind as ChaosFault, FaultProxy, FaultSchedule, Framing};
use nerpa::codegen::CodegenOptions;
use nerpa::controller::NerpaProgram;
use p4sim::service::{ControlClient, ControlService, SwitchDevice};
use p4sim::Switch;
use serde_json::json;
use shard::{OverloadPolicy, PartitionSpec, Router, ShardRuntime};

use crate::model::{installed, Feed, Model, MONITORED};
use crate::workload::generate_workload;

const SWITCHES: usize = 2;

/// What a green `--chaos-stall` run proves, with the numbers to show it.
#[derive(Debug, Default)]
pub struct OverloadReport {
    /// Workload steps applied.
    pub steps: usize,
    /// Inputs shed (tolerated, healed by resync) during the stall.
    pub sheds: u64,
    /// Write jobs coalesced instead of growing the writer queue.
    pub coalesced: u64,
    /// Push-deadline watchdog firings (must be ≥ 1).
    pub watchdog_restarts: u64,
    /// Commits landed on the healthy shard *while* the other shard's
    /// switch was stalled.
    pub commits_during_stall: u64,
    /// Table entries installed per switch at convergence.
    pub final_entries: usize,
    /// Monitor subscribers evicted in the slow-consumer phase (≥ 1).
    pub evictions: u64,
    /// Healthy monitor subscribers that kept receiving throughout.
    pub healthy_monitors: usize,
}

struct StallHarness {
    db: ovsdb::Database,
    runtime: ShardRuntime,
    devices: Vec<SwitchDevice>,
    policy: OverloadPolicy,
    model: Model,
    sheds: u64,
}

impl StallHarness {
    /// Tight bounds so overload machinery engages at oracle scale.
    fn policy() -> OverloadPolicy {
        OverloadPolicy {
            input_queue_cap: 512,
            write_queue_cap: 16,
            enqueue_deadline: Duration::from_secs(1),
            push_deadline: Duration::from_millis(250),
            watchdog_poll: Duration::from_millis(25),
        }
    }

    fn new(
        proxy_addr: std::net::SocketAddr,
        devices: Vec<SwitchDevice>,
    ) -> Result<StallHarness, String> {
        let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA)?;
        let program = p4sim::parse_p4(snvs::assets::SNVS_P4).map_err(|e| e.to_string())?;
        let nerpa_program = NerpaProgram {
            schema: schema.clone(),
            p4info: p4sim::P4Info::from_program(&program),
            rules: snvs::assets::SNVS_RULES.to_string(),
            options: CodegenOptions { per_switch: true },
        };
        let router = Router::new(PartitionSpec::snvs(), SWITCHES);
        let client0 = ControlClient::connect(proxy_addr).map_err(|e| e.to_string())?;
        let policy = Self::policy();
        let runtime = ShardRuntime::start_with(
            &nerpa_program,
            router,
            vec![(0, Box::new(client0)), (1, Box::new(devices[1].clone()))],
            policy.clone(),
        )?;
        let mut harness = StallHarness {
            db: ovsdb::Database::new(schema),
            runtime,
            devices,
            policy,
            model: Model::new(SWITCHES),
            sheds: 0,
        };
        let rows = Feed::Transact(harness.model.switch_rows());
        harness.feed(rows)?;
        Ok(harness)
    }

    /// Offer the runtime what one workload op lowered to. A database
    /// commit must succeed, but an overloaded or degraded runtime may
    /// shed its delivery — that is the fault under test, healed by
    /// resync, so it is counted rather than fatal. Digests are not in
    /// the database, so a shed digest is genuinely lost: the model takes
    /// it back and convergence is held to exactly what was accepted.
    fn feed(&mut self, feed: Feed) -> Result<(), String> {
        match feed {
            Feed::Transact(ops) => {
                let before = self.db.commit_index();
                let (results, changes) = self.db.transact(&ops);
                if self.db.commit_index() == before {
                    return Err(format!("overload oracle transaction aborted: {results}"));
                }
                if self.runtime.handle_row_changes(&changes).is_err() {
                    self.sheds += 1;
                }
            }
            Feed::Digest { sw, digest, learn } => {
                let batch = vec![digest.clone()];
                let offered = if learn {
                    self.runtime.handle_digests(sw, batch)
                } else {
                    self.runtime.retract_digests(sw, batch)
                };
                if offered.is_err() {
                    self.model.set_learned(sw, &digest, !learn);
                    self.sheds += 1;
                }
            }
        }
        Ok(())
    }

    /// Post-recovery battery: both devices hold exactly the fault-free
    /// state and every queue stayed inside its cap.
    fn check_converged(&self) -> Result<usize, String> {
        let mut total = 0usize;
        for (sw, device) in self.devices.iter().enumerate() {
            self.model
                .check_device(sw, device, &format!("switch {sw}: "))?;
            total += installed(device).len();
        }
        for shard in 0..SWITCHES {
            let (in_hwm, wr_hwm) = self.runtime.queue_highwater(shard);
            if in_hwm > self.policy.input_queue_cap as u64 {
                return Err(format!(
                    "shard {shard}: input queue high-water {in_hwm} exceeded cap {}",
                    self.policy.input_queue_cap
                ));
            }
            if wr_hwm > self.policy.write_queue_cap as u64 {
                return Err(format!(
                    "shard {shard}: write queue high-water {wr_hwm} exceeded cap {}",
                    self.policy.write_queue_cap
                ));
            }
            let poisoned = self.runtime.poisoned_switches(shard);
            if !poisoned.is_empty() {
                return Err(format!(
                    "shard {shard}: switches {poisoned:?} still poisoned after replace"
                ));
            }
            let dirty = self.runtime.dirty_switches(shard);
            if !dirty.is_empty() {
                return Err(format!(
                    "shard {shard}: switches {dirty:?} still dirty after reconcile"
                ));
            }
        }
        Ok(total)
    }
}

/// Phase 1: stall a switch's control connection mid-churn and prove the
/// watchdog + reconcile path restores the fault-free state.
fn run_stall_phase(
    seed: u64,
    steps: usize,
    stall_seed: u64,
    report: &mut OverloadReport,
) -> Result<(), String> {
    let program = p4sim::parse_p4(snvs::assets::SNVS_P4).map_err(|e| e.to_string())?;
    let devices: Vec<SwitchDevice> = (0..SWITCHES)
        .map(|_| SwitchDevice::new(Switch::new(program.clone())))
        .collect();
    let service =
        ControlService::start(devices[0].clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    // The scripted stall: freeze the first control connection after a
    // seed-resolved message count, for longer than any push deadline.
    // The freeze is severed manually once the watchdog has proven
    // itself, so the wedged in-flight frame is dropped, not replayed.
    let plan = ChaosFault::Stall {
        after_messages: (10, 30),
        duration: Duration::from_secs(600),
    }
    .conn_plan()
    .expect("Stall is a wire fault");
    let proxy = FaultProxy::start(
        service.local_addr(),
        FaultSchedule::scripted(stall_seed, Framing::LengthPrefixed, vec![plan]),
    )
    .map_err(|e| e.to_string())?;

    let mut harness = StallHarness::new(proxy.local_addr(), devices)?;
    let shard0 = harness.runtime.shard_of_switch(0);
    let shard1 = harness.runtime.shard_of_switch(1);
    // Shard counters live in the process-global registry, so a second
    // seed in the same run sees the first seed's counts: everything
    // below works in deltas from this baseline.
    let wd_base = harness.runtime.watchdog_restarts(shard0);
    let co_base: u64 = (0..SWITCHES)
        .map(|s| harness.runtime.coalesced_writes(s))
        .sum();

    let ops = generate_workload(seed, steps);
    for op in &ops {
        if let Some(feed) = harness.model.apply(op) {
            harness.feed(feed)?;
        }
        report.steps += 1;
    }
    // Make sure the stall actually triggered (short workloads may not
    // reach the resolved message count): keep churning until it does.
    let mut filler = 0u64;
    while proxy.stats().stalls == 0 && filler < 1000 {
        filler += 1;
        let port = PortConfig::access(40 + (filler % 4) as u16, 10 + (filler % 3) as u16);
        let feed = harness.model.upsert_port(port);
        harness.feed(feed)?;
        std::thread::sleep(Duration::from_millis(2));
    }
    if proxy.stats().stalls == 0 {
        return Err("chaos stall never fired (proxy forwarded everything)".into());
    }

    // The watchdog must catch the frozen push within its deadline.
    let deadline = Instant::now() + Duration::from_secs(15);
    while harness.runtime.watchdog_restarts(shard0) == wd_base {
        if Instant::now() > deadline {
            return Err(format!(
                "writer watchdog never fired on shard {shard0} despite a {:?} stall",
                harness.policy.push_deadline
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Isolation: while switch 0 is wedged, the healthy shard (and the
    // wedged shard's own engine) keep committing.
    let c1 = harness.runtime.commits(shard1);
    for i in 0..20u16 {
        let feed = harness
            .model
            .upsert_port(PortConfig::access(50 + (i % 4), 20 + (i % 5)));
        harness.feed(feed)?;
    }
    harness.runtime.flush();
    let gained = harness.runtime.commits(shard1).saturating_sub(c1);
    if gained == 0 {
        return Err(format!(
            "shard {shard1} stopped committing while shard {shard0}'s switch was stalled"
        ));
    }
    report.commits_during_stall = gained;

    // Recovery, supervisor-style: sever the wedged link, resync every
    // shard from a fresh snapshot, install a fresh control connection
    // for the stalled switch, reconcile, and drain.
    proxy.sever_all();
    let snapshot = harness.db.monitor_snapshot(&MONITORED)?;
    let tables: Vec<String> = MONITORED.iter().map(|t| t.to_string()).collect();
    harness.runtime.resync_from_snapshot(&snapshot, &tables)?;
    let fresh = ControlClient::connect(proxy.local_addr()).map_err(|e| e.to_string())?;
    harness.runtime.replace_switch(0, Box::new(fresh))?;
    harness.runtime.reconcile_shard(shard1)?;
    harness.runtime.flush();
    // A write error racing the first reconcile can leave a switch
    // dirty; one more reconcile round must settle it.
    if (0..SWITCHES).any(|s| !harness.runtime.dirty_switches(s).is_empty()) {
        for shard in 0..SWITCHES {
            harness.runtime.reconcile_shard(shard)?;
        }
        harness.runtime.flush();
    }

    report.final_entries = harness.check_converged()?;
    report.sheds = harness.sheds;
    report.watchdog_restarts = harness.runtime.watchdog_restarts(shard0) - wd_base;
    report.coalesced = (0..SWITCHES)
        .map(|s| harness.runtime.coalesced_writes(s))
        .sum::<u64>()
        - co_base;
    Ok(())
}

/// Phase 2: a slow monitor subscriber on a real TCP server must be
/// evicted, healthy monitors keep flowing, and the evicted client's
/// reconnect snapshot equals the database.
fn run_monitor_phase(report: &mut OverloadReport) -> Result<(), String> {
    const HEALTHY: usize = 4;
    let schema = ovsdb::Schema::from_json(&json!({
        "name": "overloaddb",
        "tables": {
            "T": {"columns": {"k": {"type": "string"},
                              "v": {"type": "integer"}}, "isRoot": true}
        }
    }))?;
    let server = ovsdb::Server::start_with(
        ovsdb::Database::new(schema),
        "127.0.0.1:0",
        ovsdb::MonitorOverload {
            outbox_cap: 4,
            evict_deadline: Duration::from_millis(200),
        },
    )
    .map_err(|e| e.to_string())?;

    let healthy: Vec<(
        ovsdb::Client,
        crossbeam_channel::Receiver<serde_json::Value>,
    )> = (0..HEALTHY)
        .map(|i| {
            let c = ovsdb::Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
            let (_, rx) = c.monitor("overloaddb", json!(i), json!({"T": {}}))?;
            Ok((c, rx))
        })
        .collect::<Result<_, String>>()?;

    // The slow subscriber: registers a monitor over a raw socket and
    // never reads another byte.
    let mut slow = std::net::TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
    {
        use ovsdb::rpc::{write_message, Message, MessageReader};
        write_message(
            &mut slow,
            &Message::Request {
                id: json!(1),
                method: "monitor".to_string(),
                params: json!(["overloaddb", "slow", {"T": {}}]),
            },
        )
        .map_err(|e| e.to_string())?;
        let mut rd = MessageReader::new(slow.try_clone().map_err(|e| e.to_string())?);
        match rd.read().map_err(|e| e.to_string())? {
            Some(Message::Response { error, .. }) if error.is_null() => {}
            other => return Err(format!("slow monitor registration failed: {other:?}")),
        }
    }
    if server.subscription_count() != HEALTHY + 1 {
        return Err("slow subscriber did not register".into());
    }

    let evictions_before = telemetry::global()
        .registry
        .value("ovsdb_monitor_evictions_total")
        .unwrap_or(0);

    // Flood with fat rows until the slow subscriber's outbox wedges and
    // eviction fires.
    let mut keys: BTreeSet<String> = BTreeSet::new();
    let big = "x".repeat(256 * 1024);
    let mut evicted = false;
    for i in 0..64 {
        let k = format!("r{i}");
        server.transact_local(&json!([
            {"op": "insert", "table": "T", "row": {"k": format!("{k}-{big}"), "v": i}}
        ]));
        keys.insert(format!("{k}-{big}"));
        if server.subscription_count() == HEALTHY {
            evicted = true;
            break;
        }
    }
    if !evicted {
        return Err("slow monitor subscriber was never evicted".into());
    }
    report.evictions = telemetry::global()
        .registry
        .value("ovsdb_monitor_evictions_total")
        .unwrap_or(0)
        .saturating_sub(evictions_before);
    if report.evictions == 0 {
        return Err("subscription vanished without an eviction being counted".into());
    }

    // The bounded outbox must never have exceeded its cap.
    let hwm = telemetry::global()
        .registry
        .value("ovsdb_monitor_outbox_depth_hwm")
        .unwrap_or(0);
    if hwm > 4 {
        return Err(format!("monitor outbox high-water {hwm} exceeded cap 4"));
    }

    // Healthy monitors keep receiving: a marker committed after the
    // eviction must reach all of them.
    server.transact_local(&json!([
        {"op": "insert", "table": "T", "row": {"k": "post-evict", "v": 999}}
    ]));
    keys.insert("post-evict".to_string());
    for (i, (_, rx)) in healthy.iter().enumerate() {
        let mut saw = false;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let Ok(upd) = rx.recv_timeout(remaining) else {
                break;
            };
            if upd["T"]
                .as_object()
                .map(|rows| rows.values().any(|r| r["new"]["k"] == json!("post-evict")))
                .unwrap_or(false)
            {
                saw = true;
                break;
            }
        }
        if !saw {
            return Err(format!(
                "healthy monitor {i} stopped receiving after the eviction"
            ));
        }
    }
    report.healthy_monitors = HEALTHY;

    // Eviction safety: the evicted client reconnects and re-monitors;
    // its fresh initial snapshot must equal the database contents.
    let reborn = ovsdb::Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let (initial, _rx) = reborn.monitor("overloaddb", json!("reborn"), json!({"T": {}}))?;
    let got: BTreeSet<String> = initial["T"]
        .as_object()
        .map(|rows| {
            rows.values()
                .filter_map(|r| r["new"]["k"].as_str().map(|s| s.to_string()))
                .collect()
        })
        .unwrap_or_default();
    if got != keys {
        return Err(format!(
            "reconnect snapshot diverged from database: {} rows vs {} expected",
            got.len(),
            keys.len()
        ));
    }
    Ok(())
}

/// Run both overload phases. `seed`/`steps` shape the churn workload,
/// `stall_seed` resolves the chaos stall point.
pub fn run_overload_oracle(
    seed: u64,
    steps: usize,
    stall_seed: u64,
) -> Result<OverloadReport, String> {
    let mut report = OverloadReport::default();
    run_stall_phase(seed, steps, stall_seed, &mut report)?;
    run_monitor_phase(&mut report)?;
    Ok(report)
}
