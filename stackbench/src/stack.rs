//! The stack under test, wired over loopback TCP exactly as the
//! integration tests wire it — and nothing emulated anywhere:
//!
//! ```text
//!  admin Client ──TCP──▶ ovsdb::Server (WAL, FsyncPolicy::Never)
//!                              │ monitor update (TCP)
//!                              ▼
//!  bench thread / pump ──▶ Controller  or  ShardRuntime (2 shards)
//!                              │ P4Runtime writes (TCP, one Tap each)
//!                              ▼
//!                    4 × ControlService ──▶ SwitchDevice
//!                              │ digests (TCP subscription)
//!                              ▼
//!                         bench thread
//! ```

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::Receiver;
use nerpa::codegen::CodegenOptions;
use nerpa::controller::{Controller, DataPlane, NerpaProgram};
use nerpa::resync::MonitorConfig;
use netsim::{HostId, Ip4, Mac, Network};
use p4sim::runtime::Digest;
use p4sim::service::{ControlClient, ControlService, SwitchDevice};
use p4sim::Switch;
use serde_json::{json, Value as Json};
use shard::{PartitionSpec, Router, ShardRuntime};

use crate::gen::SWITCHES;
use crate::settle::{now_ns, Settle, Tap};

/// Rows per bulk-load transaction.
pub const LOAD_BATCH: usize = 500;
/// How long any single reply may take before the run gives up on it.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
const DB: &str = "snvs";

/// Where run-time files (WAL directories, traces) go: under the
/// current directory, which is the checkout root.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

/// A directory name under [`run_dir`] no other stack or process uses.
pub fn fresh_dir(stem: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    run_dir().join(format!(
        "{stem}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The three snvs artifacts, parsed once per stack.
pub struct Artifacts {
    pub schema: ovsdb::Schema,
    pub p4: p4sim::ast::Program,
    pub program: NerpaProgram,
}

impl Artifacts {
    pub fn parse() -> Result<Artifacts, String> {
        let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA)?;
        let p4 = p4sim::parse_p4(snvs::assets::SNVS_P4).map_err(|e| e.to_string())?;
        let program = NerpaProgram {
            schema: schema.clone(),
            p4info: p4sim::P4Info::from_program(&p4),
            rules: snvs::assets::SNVS_RULES.to_string(),
            options: CodegenOptions { per_switch: true },
        };
        Ok(Artifacts {
            schema,
            p4,
            program,
        })
    }
}

/// A durable database in a fresh directory: WAL encode and write are on
/// the path, the disk flush is not.
fn open_database(schema: &ovsdb::Schema) -> Result<(ovsdb::Database, PathBuf), String> {
    let dir = fresh_dir("wal");
    let cfg = ovsdb::DurabilityConfig {
        fsync: ovsdb::FsyncPolicy::Never,
        ..ovsdb::DurabilityConfig::default()
    };
    let (db, _) = ovsdb::Database::open(&dir, schema.clone(), cfg).map_err(|e| e.to_string())?;
    Ok((db, dir))
}

/// One switch: the in-process device, its TCP control service, and the
/// digest stream subscribed over TCP.
pub struct SwitchEnd {
    pub device: SwitchDevice,
    pub service: ControlService,
    pub digests: Receiver<Vec<Digest>>,
}

impl SwitchEnd {
    fn start(p4: &p4sim::ast::Program) -> Result<SwitchEnd, String> {
        let device = SwitchDevice::new(Switch::new(p4.clone()));
        let service =
            ControlService::start(device.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let digests = ControlClient::connect(service.local_addr())
            .map_err(|e| e.to_string())?
            .subscribe_digests()?;
        Ok(SwitchEnd {
            device,
            service,
            digests,
        })
    }

    fn tap(&self, switch: usize, settle: &Arc<Settle>) -> Result<Box<dyn DataPlane>, String> {
        let client =
            ControlClient::connect(self.service.local_addr()).map_err(|e| e.to_string())?;
        Ok(Box::new(Tap::new(switch, Box::new(client), settle.clone())))
    }
}

/// One monitor update as the pump thread saw it (traced phases).
pub struct PumpRecord {
    pub received_ns: u64,
    pub enqueued_ns: u64,
}

#[derive(Default)]
struct PumpState {
    /// Updates forwarded so far.
    seen: u64,
    records: Vec<PumpRecord>,
}

/// The monitor-update consumer of a sharded stack: forwards every
/// update into the runtime until the monitor link closes.
pub struct Pump {
    thread: JoinHandle<Result<(), String>>,
    state: Arc<(Mutex<PumpState>, Condvar)>,
}

impl Pump {
    fn start(runtime: Arc<ShardRuntime>, updates: Receiver<Json>, settle: Arc<Settle>) -> Pump {
        let state = Arc::new((Mutex::new(PumpState::default()), Condvar::new()));
        let shared = state.clone();
        let thread = std::thread::spawn(move || {
            for update in updates.iter() {
                let received_ns = now_ns();
                runtime.handle_monitor_update(&update)?;
                let enqueued_ns = now_ns();
                let mut st = shared.0.lock().expect("pump state poisoned");
                st.seen += 1;
                if settle.tracing() {
                    st.records.push(PumpRecord {
                        received_ns,
                        enqueued_ns,
                    });
                }
                shared.1.notify_all();
            }
            Ok(())
        });
        Pump { thread, state }
    }

    /// Block until the pump has forwarded `n` updates.
    fn wait_seen(&self, n: u64) -> Result<(), String> {
        let guard = self.state.0.lock().expect("pump state poisoned");
        let (_guard, timeout) = self
            .state
            .1
            .wait_timeout_while(guard, REPLY_TIMEOUT, |st| st.seen < n)
            .expect("pump state poisoned");
        if timeout.timed_out() {
            return Err(format!("pump never saw monitor update {n}"));
        }
        Ok(())
    }

    fn take_records(&self) -> Vec<PumpRecord> {
        std::mem::take(&mut self.state.0.lock().expect("pump state poisoned").records)
    }

    /// Wait for the pump to drain and stop (its monitor link must be
    /// closed first).
    fn join(self) -> Result<(), String> {
        self.thread
            .join()
            .map_err(|_| "pump thread panicked".to_string())?
    }
}

/// The control plane flavour of a stack.
pub enum Plane {
    /// The unsharded controller, driven inline by the bench thread.
    Direct {
        controller: Box<Controller>,
        updates: Receiver<Json>,
    },
    /// The threaded shard runtime, fed by the pump thread.
    Sharded {
        runtime: Arc<ShardRuntime>,
        pump: Option<Pump>,
    },
}

pub struct Stack {
    pub art: Artifacts,
    pub server: ovsdb::Server,
    wal_dir: PathBuf,
    pub admin: ovsdb::Client,
    monitor: Option<ovsdb::Client>,
    pub switches: Vec<SwitchEnd>,
    pub plane: Plane,
    pub settle: Arc<Settle>,
    /// `Controller::new` (or `ShardRuntime::start`): codegen plus type
    /// check of the three artifacts.
    pub compile_ns: u64,
}

fn check_reply(reply: &Json) -> Result<(), String> {
    match reply
        .as_array()
        .and_then(|a| a.iter().find(|r| r.get("error").is_some()))
    {
        Some(err) => Err(format!("transaction failed: {err}")),
        None => Ok(()),
    }
}

impl Stack {
    /// Build the whole stack with `shards` shards (0 = the unsharded
    /// controller) and register the switches in the database.
    pub fn build(shards: usize, settle: Arc<Settle>) -> Result<Stack, String> {
        let art = Artifacts::parse()?;
        let (db, wal_dir) = open_database(&art.schema)?;
        let server = ovsdb::Server::start(db, "127.0.0.1:0").map_err(|e| e.to_string())?;
        let switches = (0..SWITCHES)
            .map(|_| SwitchEnd::start(&art.p4))
            .collect::<Result<Vec<_>, _>>()?;
        let admin = ovsdb::Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let (monitor, initial, updates) = dial(server.local_addr())?;

        let compile_start = Instant::now();
        let (plane, compile_ns) = if shards == 0 {
            let mut controller = Controller::new(&art.program)?;
            let compile_ns = compile_start.elapsed().as_nanos() as u64;
            for (i, sw) in switches.iter().enumerate() {
                controller.add_switch(sw.tap(i, &settle)?);
            }
            controller.handle_monitor_update(&initial)?;
            (
                Plane::Direct {
                    controller: Box::new(controller),
                    updates,
                },
                compile_ns,
            )
        } else {
            let taps = switches
                .iter()
                .enumerate()
                .map(|(i, sw)| Ok((i, sw.tap(i, &settle)?)))
                .collect::<Result<Vec<_>, String>>()?;
            let router = Router::new(PartitionSpec::snvs(), shards);
            let runtime = Arc::new(ShardRuntime::start(&art.program, router, taps)?);
            let compile_ns = compile_start.elapsed().as_nanos() as u64;
            runtime.handle_monitor_update(&initial)?;
            let pump = Pump::start(runtime.clone(), updates, settle.clone());
            (
                Plane::Sharded {
                    runtime,
                    pump: Some(pump),
                },
                compile_ns,
            )
        };

        let mut stack = Stack {
            art,
            server,
            wal_dir,
            admin,
            monitor: Some(monitor),
            switches,
            plane,
            settle,
            compile_ns,
        };
        stack.transact(switch_rows())?;
        match &mut stack.plane {
            Plane::Direct {
                controller,
                updates,
            } => {
                let update = updates
                    .recv_timeout(REPLY_TIMEOUT)
                    .map_err(|e| format!("no monitor update: {e}"))?;
                controller.handle_monitor_update(&update)?;
            }
            Plane::Sharded { pump, .. } => {
                pump.as_ref().expect("pump just started").wait_seen(1)?
            }
        }
        Ok(stack)
    }

    /// Run one admin transaction and check every operation succeeded.
    pub fn transact(&self, ops: Json) -> Result<(), String> {
        check_reply(&self.admin.transact(DB, ops)?)
    }

    /// Cut the monitor link, as a network failure would.
    pub fn drop_monitor(&mut self) -> Result<(), String> {
        self.monitor = None;
        if let Plane::Sharded { pump, .. } = &mut self.plane {
            if let Some(p) = pump.take() {
                p.join()?;
            }
        }
        Ok(())
    }

    /// Install a fresh monitor link (after a resync).
    pub fn adopt_monitor(&mut self, client: ovsdb::Client, fresh: Receiver<Json>) {
        self.monitor = Some(client);
        match &mut self.plane {
            Plane::Direct { updates, .. } => *updates = fresh,
            Plane::Sharded { runtime, pump } => {
                *pump = Some(Pump::start(runtime.clone(), fresh, self.settle.clone()))
            }
        }
    }

    /// A new monitor connection and its initial snapshot.
    pub fn dial_monitor(&self) -> Result<(ovsdb::Client, Json, Receiver<Json>), String> {
        dial(self.server.local_addr())
    }

    /// Replace switch `idx` with an empty device behind a new service,
    /// returning the tapped control connection to hand to the control
    /// plane. The old service shuts down.
    pub fn restart_switch(&mut self, idx: usize) -> Result<Box<dyn DataPlane>, String> {
        let fresh = SwitchEnd::start(&self.art.p4)?;
        self.settle.reset_switch(idx);
        let tap = fresh.tap(idx, &self.settle)?;
        self.switches[idx] = fresh;
        Ok(tap)
    }

    /// A packet network over the current devices with one host on every
    /// `(switch, port)`; the host of `(s, p)` is `host_id(ports, s, p)`.
    pub fn network(&self, ports: usize) -> Network {
        let mut net = Network::new();
        for sw in &self.switches {
            net.add_switch(sw.device.clone());
        }
        for s in 0..SWITCHES {
            for p in 1..=ports as u16 {
                let n = (s * ports) as u32 + p as u32;
                net.add_host(
                    Mac::host(n),
                    Ip4::new(10, (n >> 16) as u8, (n >> 8) as u8, n as u8),
                    s,
                    p,
                );
            }
        }
        net
    }

    /// The pump's traced records so far (sharded stacks).
    pub fn take_pump_log(&self) -> Vec<PumpRecord> {
        match &self.plane {
            Plane::Sharded {
                pump: Some(pump), ..
            } => pump.take_records(),
            _ => Vec::new(),
        }
    }
}

/// The host attached to `(switch, port)` in [`Stack::network`].
pub fn host_id(ports: usize, switch: usize, port: u16) -> HostId {
    switch * ports + port as usize - 1
}

/// The transaction registering every switch in the database.
pub fn switch_rows() -> Json {
    Json::Array(
        (0..SWITCHES)
            .map(|idx| json!({"op": "insert", "table": "Switch", "row": {"idx": idx}}))
            .collect(),
    )
}

/// The monitor subscription of every stack: all columns of both tables.
pub fn monitor_config() -> MonitorConfig {
    MonitorConfig::all_columns(DB, &["Port", "Switch"])
}

fn dial(server: SocketAddr) -> Result<(ovsdb::Client, Json, Receiver<Json>), String> {
    let config = monitor_config();
    let client = ovsdb::Client::connect(server).map_err(|e| e.to_string())?;
    let (initial, updates) = client.monitor(&config.db, config.mon_id, config.requests)?;
    Ok((client, initial, updates))
}

impl Drop for Stack {
    fn drop(&mut self) {
        // Close the links first so every thread behind them winds down,
        // then remove the WAL directory.
        let _ = self.drop_monitor();
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}
