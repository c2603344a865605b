//! The shadow replay of a traced run.
//!
//! After the measured phases, everything the run fed the stack — admin
//! transactions and digest batches, in order — is replayed on idle,
//! in-process replicas of each layer: an in-memory database, a
//! write-ahead log, a monitor, and an unsharded controller (with its
//! engine) over four in-process devices. Timing each replica's public entry point gives
//! the cost of that layer alone for exactly the inputs of the run, with
//! no socket and no contention, and the same way on every workload —
//! including the sharded one, whose commits happen on threads the bench
//! cannot time from outside.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ddlog::Value;
use nerpa::controller::{Controller, DataPlane, TraceCtx};
use nerpa::convert;
use ovsdb::wal::{Wal, WalRecord, WAL_FILE};
use p4sim::runtime::Update;
use p4sim::service::SwitchDevice;
use p4sim::Switch;

use crate::exec::{Measure, Replay};
use crate::gen::SWITCHES;
use crate::stack::{fresh_dir, monitor_config, switch_rows, Artifacts};

/// Samples in microseconds, keyed by metric stem.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

pub struct ShadowOut {
    pub samples: Samples,
    /// Dataflow tuples processed by the inputs of the measured phase.
    pub tuples: u64,
    /// `Engine::approx_bytes` after the last input.
    pub state_bytes: usize,
}

/// An in-process device that times `SwitchDevice::write`.
struct TimedDevice {
    device: SwitchDevice,
    writes_ns: Arc<Mutex<Vec<u64>>>,
}

impl DataPlane for TimedDevice {
    fn write_updates(&self, updates: &[Update]) -> Result<(), String> {
        let start = Instant::now();
        self.device.write(updates)?;
        self.writes_ns
            .lock()
            .expect("shadow write log poisoned")
            .push(start.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn set_mcast_group(&self, group: u16, ports: Vec<u16>) -> Result<(), String> {
        self.device.set_mcast_group(group, ports);
        Ok(())
    }
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

struct Shadow<'a> {
    schema: &'a ovsdb::Schema,
    controller: Controller,
    writes_ns: Arc<Mutex<Vec<u64>>>,
    out: ShadowOut,
}

impl Shadow<'_> {
    fn push(&mut self, measure: Measure, stem: &'static str, bulk_stem: &'static str, v: f64) {
        let key = match measure {
            Measure::Skip | Measure::Drill => return,
            Measure::Single | Measure::Probe => stem,
            Measure::Bulk => bulk_stem,
        };
        self.out.samples.entry(key).or_default().push(v);
    }

    /// Run one decoded input through the controller replica and its
    /// devices. The engine's share of `commit_to_plan` is the commit
    /// wall time the engine itself reports in its work profile.
    fn control_plane(
        &mut self,
        ops: Vec<(String, Vec<Value>, bool)>,
        measure: Measure,
    ) -> Result<(), String> {
        let start = Instant::now();
        let (_, plan) = self
            .controller
            .commit_to_plan(ops, TraceCtx::minted("shadow"))?;
        let planned = us(start);
        let profile = self
            .controller
            .engine()
            .last_profile()
            .ok_or("the engine kept no profile of its commit")?;
        let commit = profile.total_wall_ns as f64 / 1e3;
        if measure == Measure::Single {
            self.out.tuples += profile.total_tuples();
        }
        self.writes_ns
            .lock()
            .expect("shadow write log poisoned")
            .clear();
        if let Some(plan) = plan {
            self.controller.push_plan(plan)?;
        }
        let applies: Vec<u64> =
            std::mem::take(&mut *self.writes_ns.lock().expect("shadow write log poisoned"));

        self.push(measure, "ddlog.commit", "load.ddlog.commit", commit);
        self.push(
            measure,
            "core.commit_to_plan",
            "load.core.commit_to_plan",
            planned,
        );
        self.push(
            measure,
            "core.route_self",
            "load.core.route_self",
            planned - commit,
        );
        for ns in applies {
            self.push(
                measure,
                "p4sim.table_apply",
                "load.p4sim.table_apply",
                ns as f64 / 1e3,
            );
        }
        Ok(())
    }
}

/// Replay `log` on fresh replicas and return each layer's samples.
pub fn replay(art: &Artifacts, log: &[Replay]) -> Result<ShadowOut, String> {
    let mut mem = ovsdb::Database::new(art.schema.clone());
    let wal_dir = fresh_dir("shadow-wal");
    std::fs::create_dir_all(&wal_dir).map_err(|e| e.to_string())?;
    let mut wal = Wal::open(&wal_dir.join(WAL_FILE), ovsdb::FsyncPolicy::Never, 0)
        .map_err(|e| e.to_string())?;
    let monitor = ovsdb::Monitor::parse(&monitor_config().requests, &mem)?;

    let (_, _, p4_gen) = art.program.generate();
    let binding = p4_gen
        .digests
        .iter()
        .find(|d| d.relation == "mac_learn_t")
        .ok_or("no mac_learn_t digest binding")?
        .clone();
    let mut controller = Controller::new(&art.program)?;
    let writes_ns = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..SWITCHES {
        controller.add_switch(Box::new(TimedDevice {
            device: SwitchDevice::new(Switch::new(art.p4.clone())),
            writes_ns: writes_ns.clone(),
        }));
    }
    let mut shadow = Shadow {
        schema: &art.schema,
        controller,
        writes_ns,
        out: ShadowOut {
            samples: Samples::new(),
            tuples: 0,
            state_bytes: 0,
        },
    };

    let switches = Replay::Txn {
        ops: switch_rows(),
        measure: Measure::Skip,
    };
    for item in std::iter::once(&switches).chain(log) {
        match item {
            Replay::Txn { ops, measure } => {
                let start = Instant::now();
                let (reply, changes) = mem.transact(ops);
                let in_memory = us(start);
                if changes.is_empty() {
                    return Err(format!("shadow transaction changed nothing: {reply}"));
                }
                // What the durable database adds per commit: encoding
                // the record and writing it to the log file.
                let record = WalRecord {
                    commit_index: mem.commit_index(),
                    uuid_counter: 0,
                    ops: ops.clone(),
                };
                let start = Instant::now();
                wal.append(&record).map_err(|e| e.to_string())?;
                let logged = us(start);
                let start = Instant::now();
                let update = monitor.format_changes(&changes);
                let formatted = us(start);
                let update = update.ok_or("shadow monitor selected nothing")?;
                let start = Instant::now();
                let decoded = {
                    let rel_types = |name: &str| shadow.controller.engine().relation_types(name);
                    convert::monitor_update_to_ops(&update, shadow.schema, &rel_types)?
                };
                let decode = us(start);
                let m = *measure;
                shadow.push(m, "ovsdb.db_transact", "load.ovsdb.db_transact", in_memory);
                shadow.push(m, "ovsdb.wal_self", "load.ovsdb.wal_self", logged);
                shadow.push(
                    m,
                    "ovsdb.monitor_format",
                    "load.ovsdb.monitor_format",
                    formatted,
                );
                shadow.push(m, "core.decode", "load.core.decode", decode);
                shadow.control_plane(decoded, m)?;
            }
            Replay::Digests {
                switch,
                digests,
                insert,
                measure,
            } => {
                let ops = digests
                    .iter()
                    .map(|d| {
                        let row = convert::digest_to_values(d, &binding, *switch)?;
                        Ok((d.name.clone(), row, *insert))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                shadow.control_plane(ops, *measure)?;
            }
        }
    }
    shadow.out.state_bytes = shadow.controller.engine().approx_bytes();
    drop(wal);
    let _ = std::fs::remove_dir_all(wal_dir);
    Ok(shadow.out)
}
