//! The async shard runtime: per-shard workers behind input queues, and
//! per-shard writer threads behind the data planes.
//!
//! Two thread layers per shard:
//!
//! * a **worker** owns the shard's [`Controller`] (its DDlog engine)
//!   and drains the shard's input queue — typed row changes, digests,
//!   resync and reconcile requests. Commits run here.
//! * a **writer** owns the shard's real data planes ([`DataPlane`]
//!   boxes, typically TCP control clients) and drains the shard's write
//!   queue. Device pushes run here.
//!
//! The worker's controller never touches a real device: its registered
//! switches are `AsyncSwitch` handles that enqueue write jobs (with
//! the originating trace id) onto the writer queue and return
//! immediately. That is the pipelining point — a commit on shard A is
//! never blocked behind a device push, and shard B's slow or dead
//! switch cannot stall shard A's writer, which is a different thread
//! with a different queue. Reads (`read_all_tables`, used by
//! reconciliation) round-trip through the writer queue, which also
//! orders them after every previously-enqueued write.
//!
//! Every queue is **bounded** (see [`OverloadPolicy`]): input queues
//! block the producer up to a deadline then shed (surfaced as an
//! error + `nerpa_shard_shed_inputs_total`); writer queues coalesce
//! per switch so a flood holds O(switches) jobs, not O(commits). A
//! per-shard **watchdog** supervises the writer: a device push that
//! exceeds `push_deadline` supersedes the writer thread (generation
//! bump), marks the stuck switch dirty + poisoned, respawns a fresh
//! writer on the same queue, and queues a reconcile. The superseded
//! thread exits without applying effects when it eventually unblocks;
//! the poisoned switch fast-fails jobs until [`ShardRuntime::replace_switch`]
//! installs a fresh data plane.
//!
//! A failed device push does not fail the pipeline: the writer marks
//! the switch dirty, flips the shard's health to degraded, and keeps
//! draining (later successful writes to the same switch clear it).
//! Reconciliation — per shard, on request or after a monitor resync —
//! replays desired state through the same queues.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crossbeam_channel::{bounded, Receiver, SendTimeoutError, Sender};
use nerpa::controller::{Controller, DataPlane, NerpaProgram, SwitchPush, TraceCtx};
use ovsdb::db::RowChange;
use p4sim::runtime::{Digest, TableEntry, Update};
use serde_json::{json, Value as Json};
use telemetry::catalogue;

use crate::overload::{OverloadPolicy, Popped, PushError, Pushed, WriteJob, WriteQueue};
use crate::partition::Router;

/// One unit of work for a shard worker.
enum ShardInput {
    /// This shard's slice of one commit's row changes — committed
    /// in-process or decoded from a monitor update, one encoding either
    /// way. The context (trace id and upstream commit time) was fixed
    /// once by the runtime so every shard's writes join the same trace.
    Changes {
        changes: Vec<RowChange>,
        ctx: TraceCtx,
    },
    /// Digests (or retractions) from one owned switch.
    Digests {
        switch_id: usize,
        digests: Vec<Digest>,
        insert: bool,
    },
    /// Resync this shard's engine from its slice of a decoded monitor
    /// snapshot (rows as inserts).
    Resync {
        rows: Vec<RowChange>,
        tables: Vec<String>,
    },
    /// Reconcile this shard's switches (tolerant: per-switch errors are
    /// recorded, not fatal).
    Reconcile,
    /// Drain marker: reply once everything enqueued before it — worker
    /// side and writer side — has been fully processed.
    Flush(Sender<()>),
}

/// Shared, externally-visible state of one shard: the `shard`-labeled
/// series plus what the `/shards` page renders.
struct ShardStat {
    /// Global ids of the switches this shard owns.
    switches: Vec<usize>,
    commits: telemetry::Counter,
    commit_errors: telemetry::Counter,
    write_batches: telemetry::Counter,
    write_errors: telemetry::Counter,
    entries_written: telemetry::Counter,
    queue_depth: telemetry::Gauge,
    write_queue_depth: telemetry::Gauge,
    /// High-water marks of the two depth gauges: the overload oracle
    /// asserts these never exceed the configured caps.
    queue_depth_hwm: telemetry::Gauge,
    write_queue_depth_hwm: telemetry::Gauge,
    /// Inputs/write jobs shed after blocking the full enqueue deadline.
    shed_inputs: telemetry::Counter,
    /// Sends that failed because the worker/writer is gone (was a
    /// silent `let _ = send(..)` before overload hardening).
    dropped_inputs: telemetry::Counter,
    /// Switch pushes merged into the switch's already-queued push
    /// instead of growing the queue.
    coalesced_writes: telemetry::Counter,
    /// Writer threads superseded + respawned by the push watchdog.
    watchdog_restarts: telemetry::Counter,
    /// Switches whose last push failed and that have not been healed by
    /// a later successful write or reconcile.
    dirty: Mutex<BTreeSet<usize>>,
    /// Human-readable resync/reconcile state ("idle", "reconciling",
    /// "resyncing", "reconciled +a -b", "failed: ...").
    resync_state: Mutex<String>,
}

impl ShardStat {
    fn new(shard: usize, switches: Vec<usize>) -> ShardStat {
        let registry = &telemetry::global().registry;
        let label = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &label)];
        ShardStat {
            switches,
            commits: registry.counter_with(
                "nerpa_shard_commits_total",
                "Engine transactions committed, per shard",
                labels,
            ),
            commit_errors: catalogue::SHARD_INPUT_ERROR.folds[0].counter_for(shard as u64),
            write_batches: registry.counter_with(
                "nerpa_shard_write_batches_total",
                "Device write batches pushed by the shard's writer",
                labels,
            ),
            write_errors: catalogue::SHARD_WRITE_ERROR.folds[0].counter_for(shard as u64),
            entries_written: registry.counter_with(
                "nerpa_shard_entries_written_total",
                "Table-entry updates pushed by the shard's writer",
                labels,
            ),
            queue_depth: registry.gauge_with(
                "nerpa_shard_queue_depth",
                "Pending inputs in the shard's worker queue",
                labels,
            ),
            write_queue_depth: registry.gauge_with(
                "nerpa_shard_write_queue_depth",
                "Pending jobs in the shard's writer queue",
                labels,
            ),
            queue_depth_hwm: registry.gauge_with(
                "nerpa_shard_queue_depth_hwm",
                "High-water mark of the shard's worker queue depth",
                labels,
            ),
            write_queue_depth_hwm: registry.gauge_with(
                "nerpa_shard_write_queue_depth_hwm",
                "High-water mark of the shard's writer queue depth",
                labels,
            ),
            shed_inputs: catalogue::SHARD_OVERLOAD.folds[0].counter_for(shard as u64),
            dropped_inputs: registry.counter_with(
                "nerpa_shard_dropped_inputs_total",
                "Sends that failed because the shard's worker or writer is gone",
                labels,
            ),
            coalesced_writes: registry.counter_with(
                "nerpa_shard_coalesced_writes_total",
                "Write jobs coalesced into an already-queued job for the same switch",
                labels,
            ),
            watchdog_restarts: catalogue::SHARD_WATCHDOG_FIRE.folds[0].counter_for(shard as u64),
            dirty: Mutex::new(BTreeSet::new()),
            resync_state: Mutex::new("idle".to_string()),
        }
    }

    fn set_resync_state(&self, s: impl Into<String>) {
        *self.resync_state.lock().unwrap() = s.into();
    }

    fn note_write_queue_depth(&self, depth: usize) {
        self.write_queue_depth.set(depth as i64);
        self.write_queue_depth_hwm.set_max(depth as i64);
    }
}

/// One owned switch slot behind the writer. `dp` is `None` while a
/// writer thread has the handle out for a push (or after a watchdog
/// fire dropped it); `poisoned` means the device is presumed stuck and
/// jobs fast-fail until a `Replace` installs a fresh handle.
struct SwitchSlot {
    dp: Option<Box<dyn DataPlane>>,
    poisoned: bool,
}

/// State shared between a shard's writer thread(s), its watchdog, and
/// the runtime handle.
struct WriterShared {
    queue: WriteQueue,
    switches: Mutex<BTreeMap<usize, SwitchSlot>>,
    /// The push currently on a device: `(switch, started, generation)`.
    inflight: Mutex<Option<(usize, Instant, u64)>>,
    /// The live writer's join handle; superseded handles are detached
    /// (they belong to threads that may be stuck in a device call).
    writer_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl WriterShared {
    fn poisoned_switches(&self) -> Vec<usize> {
        self.switches
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, slot)| slot.poisoned)
            .map(|(id, _)| *id)
            .collect()
    }
}

/// A [`DataPlane`] handle that enqueues writes onto its shard's writer
/// queue instead of touching a device. Registered in the shard worker's
/// controller under the switch's global id, so the worker uses the
/// ordinary commit→convert→write paths while actual device
/// programming happens on the writer thread.
struct AsyncSwitch {
    shard: usize,
    switch_id: usize,
    queue: WriteQueue,
    stat: Arc<ShardStat>,
    policy: OverloadPolicy,
}

impl AsyncSwitch {
    /// Enqueue a writer job with the shard's overload discipline:
    /// coalesce if possible, block up to the enqueue deadline on a
    /// full queue, then shed with a surfaced error.
    fn enqueue(&self, job: WriteJob) -> Result<(), String> {
        match self.queue.push(job, Some(self.policy.enqueue_deadline)) {
            Ok(Pushed::Queued) => {
                self.stat.note_write_queue_depth(self.queue.len());
                Ok(())
            }
            Ok(Pushed::Coalesced) => {
                self.stat.coalesced_writes.inc();
                Ok(())
            }
            Err(PushError::Timeout(_)) => {
                self.stat.dirty.lock().unwrap().insert(self.switch_id);
                catalogue::SHARD_OVERLOAD.record(
                    0,
                    &[
                        ("shard", self.shard as u64),
                        ("switch", self.switch_id as u64),
                    ],
                );
                Err(format!(
                    "write queue full past deadline for switch {} (job shed, switch marked dirty)",
                    self.switch_id
                ))
            }
            Err(PushError::Closed(_)) => {
                self.stat.dropped_inputs.inc();
                Err("shard writer gone".to_string())
            }
        }
    }
}

impl DataPlane for AsyncSwitch {
    fn write_updates(&self, updates: &[Update]) -> Result<(), String> {
        let push = SwitchPush {
            updates: updates.to_vec(),
            ..SwitchPush::default()
        };
        self.push(&push, 0)
    }

    fn set_mcast_group(&self, group: u16, ports: Vec<u16>) -> Result<(), String> {
        let push = SwitchPush {
            groups: [(group, ports)].into(),
            ..SwitchPush::default()
        };
        self.push(&push, 0)
    }

    fn push(&self, push: &SwitchPush, trace: u64) -> Result<(), String> {
        self.enqueue(WriteJob::Push {
            switch_id: self.switch_id,
            push: push.clone(),
            traces: (trace != 0).then_some(trace).into_iter().collect(),
        })
    }

    fn settles_inline(&self) -> bool {
        // Enqueueing is not settling: the shard's writer records
        // convergence when the device acknowledges the push.
        false
    }

    fn read_all_tables(&self) -> Result<Vec<(String, Vec<TableEntry>)>, String> {
        let (tx, rx) = bounded(1);
        self.enqueue(WriteJob::ReadAll {
            switch_id: self.switch_id,
            reply: tx,
        })?;
        rx.recv().map_err(|_| "shard writer gone".to_string())?
    }
}

/// Device push latency as seen by shard writers (one series for every
/// shard, looked up once).
fn push_us() -> &'static telemetry::Histogram {
    static H: std::sync::OnceLock<telemetry::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| {
        telemetry::global().registry.histogram(
            "nerpa_shard_push_us",
            "Device push latency as seen by shard writers, microseconds",
            &telemetry::LATENCY_BOUNDS_US,
        )
    })
}

/// The running sharded control plane: N workers, N supervised writers,
/// N watchdogs, and the router that feeds them. Dropping the runtime
/// shuts every thread down (after draining the queues).
pub struct ShardRuntime {
    router: Router,
    /// What monitor updates are decoded with, once, before the fan-out.
    schema: ovsdb::Schema,
    policy: OverloadPolicy,
    inputs: Vec<Sender<ShardInput>>,
    writer_shared: Vec<Arc<WriterShared>>,
    stats: Vec<Arc<ShardStat>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    watchdogs: Vec<std::thread::JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl ShardRuntime {
    /// [`ShardRuntime::start_with`] under the default [`OverloadPolicy`].
    pub fn start(
        program: &NerpaProgram,
        router: Router,
        switches: Vec<(usize, Box<dyn DataPlane>)>,
    ) -> Result<ShardRuntime, String> {
        ShardRuntime::start_with(program, router, switches, OverloadPolicy::default())
    }

    /// Compile one engine per shard and start the worker/writer pairs
    /// plus a per-shard writer watchdog. `switches` are `(global switch
    /// id, data plane)` pairs; each goes to the shard the router
    /// assigns it.
    pub fn start_with(
        program: &NerpaProgram,
        router: Router,
        switches: Vec<(usize, Box<dyn DataPlane>)>,
        policy: OverloadPolicy,
    ) -> Result<ShardRuntime, String> {
        let n = router.shards();
        let mut per_shard: Vec<Vec<(usize, Box<dyn DataPlane>)>> =
            (0..n).map(|_| Vec::new()).collect();
        for (id, dp) in switches {
            per_shard[router.route_switch(id)].push((id, dp));
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        let mut inputs = Vec::with_capacity(n);
        let mut writer_shared = Vec::with_capacity(n);
        let mut stats = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        let mut watchdogs = Vec::with_capacity(n);
        for (shard, owned) in per_shard.into_iter().enumerate() {
            let ids: Vec<usize> = owned.iter().map(|(id, _)| *id).collect();
            let stat = Arc::new(ShardStat::new(shard, ids.clone()));
            let queue = WriteQueue::new(policy.write_queue_cap);
            let (in_tx, in_rx) = bounded::<ShardInput>(policy.input_queue_cap);

            let shared = Arc::new(WriterShared {
                queue: queue.clone(),
                switches: Mutex::new(
                    owned
                        .into_iter()
                        .map(|(id, dp)| {
                            (
                                id,
                                SwitchSlot {
                                    dp: Some(dp),
                                    poisoned: false,
                                },
                            )
                        })
                        .collect(),
                ),
                inflight: Mutex::new(None),
                writer_handle: Mutex::new(None),
            });

            let mut controller = Controller::new(program)?;
            for id in &ids {
                controller.add_switch_with_id(
                    *id,
                    Box::new(AsyncSwitch {
                        shard,
                        switch_id: *id,
                        queue: queue.clone(),
                        stat: stat.clone(),
                        policy: policy.clone(),
                    }),
                );
            }

            spawn_writer(shard, shared.clone(), stat.clone(), 0)?;
            watchdogs.push(spawn_watchdog(
                shard,
                shared.clone(),
                stat.clone(),
                policy.clone(),
                in_tx.clone(),
                shutdown.clone(),
            )?);
            let worker_stat = stat.clone();
            let worker_queue = queue.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("shard-worker-{shard}"))
                    .spawn(move || worker_loop(shard, controller, in_rx, worker_queue, worker_stat))
                    .map_err(|e| e.to_string())?,
            );
            inputs.push(in_tx);
            writer_shared.push(shared);
            stats.push(stat);
        }

        let runtime = ShardRuntime {
            router,
            schema: program.schema.clone(),
            policy,
            inputs,
            writer_shared,
            stats,
            workers,
            watchdogs,
            shutdown,
        };
        runtime.register_shards_page();
        Ok(runtime)
    }

    /// The router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The active overload policy.
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
    }

    /// The shard owning switch `switch_id`.
    pub fn shard_of_switch(&self, switch_id: usize) -> usize {
        self.router.route_switch(switch_id)
    }

    /// Decode one monitor `table-updates` object and fan its row changes
    /// out to the shard queues under the trace the server embedded.
    /// Returns once every slice is enqueued (commits and pushes happen
    /// on the shard threads); a full or dead shard queue surfaces as an
    /// error naming the shard.
    pub fn handle_monitor_update(&self, updates: &Json) -> Result<(), String> {
        let decoded = ovsdb::decode_table_updates(updates, &self.schema)?;
        self.fan_out(&decoded.changes, TraceCtx::from_monitor(decoded.trace))
    }

    /// Fan committed row changes (the in-process path) out to the shard
    /// queues under a freshly minted trace; returns that trace id.
    pub fn handle_row_changes(&self, changes: &[RowChange]) -> Result<u64, String> {
        let ctx = TraceCtx::minted("row_changes");
        self.fan_out(changes, ctx)?;
        Ok(ctx.id())
    }

    /// Split one commit's changes through the router and enqueue each
    /// shard's slice. The one context is carried onto every slice — and
    /// from there onto every device write — so the flight recorder can
    /// stitch the fan-out back into a single timeline.
    fn fan_out(&self, changes: &[RowChange], ctx: TraceCtx) -> Result<(), String> {
        telemetry::global().convergence_begin(ctx.id());
        for (shard, slice) in self
            .router
            .split_row_changes(changes)
            .into_iter()
            .enumerate()
        {
            if !slice.is_empty() {
                catalogue::SHARD_ROUTE.record(
                    ctx.id(),
                    &[("shard", shard as u64), ("rows", slice.len() as u64)],
                );
                self.enqueue(
                    shard,
                    ShardInput::Changes {
                        changes: slice,
                        ctx,
                    },
                )?;
            }
        }
        Ok(())
    }

    /// Queue digests from switch `switch_id` onto its owning shard.
    pub fn handle_digests(&self, switch_id: usize, digests: Vec<Digest>) -> Result<(), String> {
        let shard = self.router.route_switch(switch_id);
        self.enqueue(
            shard,
            ShardInput::Digests {
                switch_id,
                digests,
                insert: true,
            },
        )
    }

    /// Queue digest retractions (aging) onto the owning shard.
    pub fn retract_digests(&self, switch_id: usize, digests: Vec<Digest>) -> Result<(), String> {
        let shard = self.router.route_switch(switch_id);
        self.enqueue(
            shard,
            ShardInput::Digests {
                switch_id,
                digests,
                insert: false,
            },
        )
    }

    /// Resync every shard from a monitor snapshot: decoded once, then
    /// each shard diffs its slice against its own engine inputs (empty
    /// slices still resync so stale rows are retracted).
    pub fn resync_from_snapshot(
        &self,
        initial: &Json,
        monitored_tables: &[String],
    ) -> Result<(), String> {
        let rows = ovsdb::decode_table_updates(initial, &self.schema)?.changes;
        for (shard, rows) in self.router.split_row_changes(&rows).into_iter().enumerate() {
            self.enqueue(
                shard,
                ShardInput::Resync {
                    rows,
                    tables: monitored_tables.to_vec(),
                },
            )?;
        }
        Ok(())
    }

    /// Ask one shard to reconcile its switches (queued behind whatever
    /// it is currently processing).
    pub fn reconcile_shard(&self, shard: usize) -> Result<(), String> {
        self.enqueue(shard, ShardInput::Reconcile)
    }

    /// Swap the data plane behind `switch_id` (e.g. a fresh TCP client
    /// after the switch restarted), then reconcile its shard. Only that
    /// shard's queues are involved; other shards keep committing. Also
    /// clears the switch's watchdog-poisoned state.
    pub fn replace_switch(&self, switch_id: usize, dp: Box<dyn DataPlane>) -> Result<(), String> {
        let shard = self.router.route_switch(switch_id);
        let shared = &self.writer_shared[shard];
        match shared.queue.push(WriteJob::Replace { switch_id, dp }, None) {
            Ok(_) => self.stats[shard].note_write_queue_depth(shared.queue.len()),
            Err(_) => {
                self.stats[shard].dropped_inputs.inc();
                return Err(format!(
                    "shard {shard} writer gone; cannot replace switch {switch_id}"
                ));
            }
        }
        self.reconcile_shard(shard)
    }

    /// Barrier: block until every input enqueued before this call —
    /// commits on the workers and pushes on the writers — has been
    /// fully processed, on every shard.
    pub fn flush(&self) {
        let (tx, rx) = bounded(self.inputs.len().max(1));
        for input in &self.inputs {
            // Flush markers bypass the shed deadline: a barrier must
            // get in even under load, and the channel blocking here is
            // itself the backpressure.
            let _ = input.send(ShardInput::Flush(tx.clone()));
        }
        drop(tx);
        while rx.recv().is_ok() {}
    }

    /// Engine transactions committed by one shard so far.
    pub fn commits(&self, shard: usize) -> u64 {
        self.stats[shard].commits.get()
    }

    /// Commit errors recorded by one shard so far.
    pub fn commit_errors(&self, shard: usize) -> u64 {
        self.stats[shard].commit_errors.get()
    }

    /// Table entries successfully pushed to devices by one shard so far.
    pub fn entries_written(&self, shard: usize) -> u64 {
        self.stats[shard].entries_written.get()
    }

    /// Writer watchdog restarts on one shard so far.
    pub fn watchdog_restarts(&self, shard: usize) -> u64 {
        self.stats[shard].watchdog_restarts.get()
    }

    /// Switch pushes coalesced on one shard so far.
    pub fn coalesced_writes(&self, shard: usize) -> u64 {
        self.stats[shard].coalesced_writes.get()
    }

    /// Inputs/write jobs shed on one shard so far.
    pub fn shed_inputs(&self, shard: usize) -> u64 {
        self.stats[shard].shed_inputs.get()
    }

    /// High-water marks of one shard's (input, writer) queue depths.
    pub fn queue_highwater(&self, shard: usize) -> (u64, u64) {
        (
            self.stats[shard].queue_depth_hwm.get().max(0) as u64,
            self.stats[shard].write_queue_depth_hwm.get().max(0) as u64,
        )
    }

    /// Switches currently poisoned by the watchdog (awaiting a
    /// [`ShardRuntime::replace_switch`]).
    pub fn poisoned_switches(&self, shard: usize) -> Vec<usize> {
        self.writer_shared[shard].poisoned_switches()
    }

    /// Switches whose last device push failed and that have not healed.
    pub fn dirty_switches(&self, shard: usize) -> BTreeSet<usize> {
        self.stats[shard].dirty.lock().unwrap().clone()
    }

    fn enqueue(&self, shard: usize, input: ShardInput) -> Result<(), String> {
        let stat = &self.stats[shard];
        catalogue::SHARD_ENQUEUE.record(
            0,
            &[
                ("shard", shard as u64),
                ("depth", stat.queue_depth.get().max(0) as u64),
            ],
        );
        match self.inputs[shard].send_timeout(input, self.policy.enqueue_deadline) {
            Ok(()) => {
                stat.queue_depth.add(1);
                stat.queue_depth_hwm
                    .set_max(self.inputs[shard].len() as i64);
                Ok(())
            }
            Err(SendTimeoutError::Timeout(_)) => {
                telemetry::global()
                    .health
                    .set(format!("shard/{shard}"), "degraded(input shed)");
                catalogue::SHARD_OVERLOAD.record(0, &[("shard", shard as u64)]);
                Err(format!(
                    "shard {shard} input queue full past deadline (input shed)"
                ))
            }
            Err(SendTimeoutError::Disconnected(_)) => {
                stat.dropped_inputs.inc();
                catalogue::SHARD_WORKER_GONE.record(0, &[("shard", shard as u64)]);
                telemetry::global()
                    .health
                    .set(format!("shard/{shard}"), "degraded(worker dead)");
                Err(format!("shard {shard} worker is gone (input dropped)"))
            }
        }
    }

    /// Register the `/shards` introspection page: one JSON object per
    /// shard with its switches, counters, queue depths, overload
    /// counters, dirty/poisoned switches, and resync state.
    fn register_shards_page(&self) {
        let stats: Vec<Arc<ShardStat>> = self.stats.to_vec();
        let shared: Vec<Arc<WriterShared>> = self.writer_shared.to_vec();
        telemetry::global().register_page("/shards", "application/json", move || {
            let shards: Vec<Json> = stats
                .iter()
                .zip(shared.iter())
                .enumerate()
                .map(|(shard, (s, w))| {
                    let dirty: Vec<usize> = s.dirty.lock().unwrap().iter().copied().collect();
                    json!({
                        "shard": shard,
                        "switches": s.switches.clone(),
                        "commits": s.commits.get(),
                        "commit_errors": s.commit_errors.get(),
                        "write_batches": s.write_batches.get(),
                        "write_errors": s.write_errors.get(),
                        "entries_written": s.entries_written.get(),
                        "queue_depth": s.queue_depth.get(),
                        "write_queue_depth": s.write_queue_depth.get(),
                        "queue_depth_hwm": s.queue_depth_hwm.get(),
                        "write_queue_depth_hwm": s.write_queue_depth_hwm.get(),
                        "shed_inputs": s.shed_inputs.get(),
                        "dropped_inputs": s.dropped_inputs.get(),
                        "coalesced_writes": s.coalesced_writes.get(),
                        "watchdog_restarts": s.watchdog_restarts.get(),
                        "writer_generation": w.queue.generation(),
                        "poisoned_switches": w.poisoned_switches(),
                        "dirty_switches": dirty,
                        "resync_state": s.resync_state.lock().unwrap().clone(),
                    })
                })
                .collect();
            json!({ "shards": shards }).to_string()
        });
    }

    /// Drain and stop every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // The watchdogs hold input-sender clones (for their reconcile
        // kicks), so they must exit before closing the input channels
        // can disconnect the workers. This also means a shutdown drain
        // cannot be mistaken for a stuck push.
        self.shutdown.store(true, Ordering::SeqCst);
        for w in self.watchdogs.drain(..) {
            let _ = w.join();
        }
        // Closing the input channels ends the workers (after a drain).
        self.inputs.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Close the queues: the live writers drain what is left and
        // exit. Superseded writers were already detached.
        for shared in self.writer_shared.drain(..) {
            shared.queue.close();
            let handle = shared.writer_handle.lock().unwrap().take();
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
    }
}

impl Drop for ShardRuntime {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(
    shard: usize,
    mut controller: Controller,
    inputs: Receiver<ShardInput>,
    queue: WriteQueue,
    stat: Arc<ShardStat>,
) {
    while let Ok(input) = inputs.recv() {
        stat.queue_depth.add(-1);
        if let ShardInput::Flush(reply) = input {
            // Worker-side backlog is drained by arrival here; now drain
            // the writer too, then ack.
            let (tx, rx) = bounded(1);
            if queue.push(WriteJob::Flush(tx), None).is_ok() {
                stat.note_write_queue_depth(queue.len());
                let _ = rx.recv();
            }
            let _ = reply.send(());
            continue;
        }
        let commits = matches!(
            input,
            ShardInput::Changes { .. } | ShardInput::Digests { .. }
        );
        let result = match input {
            ShardInput::Changes { changes, ctx } => {
                controller.ingest_changes(&changes, ctx).map(|_| ())
            }
            ShardInput::Digests {
                switch_id,
                digests,
                insert,
            } => {
                let r = if insert {
                    controller.handle_digests(switch_id, &digests)
                } else {
                    controller.retract_digests(switch_id, &digests)
                };
                r.map(|_| ())
            }
            ShardInput::Resync { rows, tables } => {
                stat.set_resync_state("resyncing");
                let r = controller.resync_from_rows(&rows, &tables);
                match &r {
                    Ok(report) => stat.set_resync_state(format!(
                        "resynced +{} -{}",
                        report.inserts, report.deletes
                    )),
                    Err(e) => stat.set_resync_state(format!("resync failed: {e}")),
                }
                r.map(|_| ())
            }
            ShardInput::Reconcile => {
                stat.set_resync_state("reconciling");
                let ids = controller.switch_ids();
                let mut inserted = 0usize;
                let mut deleted = 0usize;
                let mut failed = Vec::new();
                for (id, r) in controller.try_reconcile_switches(&ids) {
                    match r {
                        Ok(report) => {
                            inserted += report.inserted;
                            deleted += report.deleted;
                            stat.dirty.lock().unwrap().remove(&id);
                        }
                        Err(e) => failed.push((id, e)),
                    }
                }
                if failed.is_empty() {
                    stat.set_resync_state(format!("reconciled +{inserted} -{deleted}"));
                    Ok(())
                } else {
                    stat.set_resync_state(format!("reconcile failed: {failed:?}"));
                    Err(format!("shard {shard} reconcile failed: {failed:?}"))
                }
            }
            ShardInput::Flush(_) => unreachable!("handled above"),
        };
        match result {
            Ok(()) => {
                if commits {
                    stat.commits.inc();
                }
            }
            Err(e) => {
                catalogue::SHARD_INPUT_ERROR.record_note(0, &[("shard", shard as u64)], e);
                telemetry::global()
                    .health
                    .set(format!("shard/{shard}"), "degraded(commit failed)");
            }
        }
    }
}

/// Spawn (or respawn) the writer thread for `shard` at `generation`,
/// registering its handle in `shared.writer_handle`. The previous
/// handle, if any, is detached — it belongs to a superseded thread
/// that may still be stuck inside a device call.
fn spawn_writer(
    shard: usize,
    shared: Arc<WriterShared>,
    stat: Arc<ShardStat>,
    generation: u64,
) -> Result<(), String> {
    let thread_shared = shared.clone();
    let handle = std::thread::Builder::new()
        .name(format!("shard-writer-{shard}.{generation}"))
        .spawn(move || writer_loop(shard, thread_shared, stat, generation))
        .map_err(|e| e.to_string())?;
    *shared.writer_handle.lock().unwrap() = Some(handle);
    Ok(())
}

/// The per-shard writer watchdog: polls the in-flight push and, when
/// one exceeds the deadline, supersedes the writer (generation bump),
/// poisons + dirties the stuck switch, respawns a fresh writer on the
/// same queue, and queues a reconcile for the shard.
fn spawn_watchdog(
    shard: usize,
    shared: Arc<WriterShared>,
    stat: Arc<ShardStat>,
    policy: OverloadPolicy,
    inputs: Sender<ShardInput>,
    shutdown: Arc<AtomicBool>,
) -> Result<std::thread::JoinHandle<()>, String> {
    std::thread::Builder::new()
        .name(format!("shard-watchdog-{shard}"))
        .spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(policy.watchdog_poll);
                let fire = {
                    let inflight = shared.inflight.lock().unwrap();
                    match *inflight {
                        Some((switch_id, started, gen))
                            if started.elapsed() >= policy.push_deadline
                                && gen == shared.queue.generation() =>
                        {
                            Some((switch_id, gen))
                        }
                        _ => None,
                    }
                };
                let Some((switch_id, gen)) = fire else {
                    continue;
                };
                let Some(new_gen) = shared.queue.supersede(gen) else {
                    continue;
                };
                *shared.inflight.lock().unwrap() = None;
                stat.dirty.lock().unwrap().insert(switch_id);
                if let Some(slot) = shared.switches.lock().unwrap().get_mut(&switch_id) {
                    // The handle is out with the superseded thread; it
                    // drops it (closing the stuck connection) when it
                    // unblocks. Until a Replace, jobs fast-fail.
                    slot.poisoned = true;
                }
                telemetry::global()
                    .health
                    .set(format!("shard/{shard}"), "degraded(writer watchdog)");
                catalogue::SHARD_WATCHDOG_FIRE.record(
                    0,
                    &[
                        ("shard", shard as u64),
                        ("switch", switch_id as u64),
                        ("generation", new_gen),
                    ],
                );
                if let Err(e) = spawn_writer(shard, shared.clone(), stat.clone(), new_gen) {
                    catalogue::SHARD_RESPAWN_ERROR.record_note(
                        0,
                        &[("shard", shard as u64), ("generation", new_gen)],
                        e,
                    );
                }
                // Re-enter the dirty-switch reconcile path; best-effort
                // (the reconcile will fast-fail on the poisoned switch
                // and succeed after replace_switch).
                let _ = inputs.try_send(ShardInput::Reconcile);
            }
        })
        .map_err(|e| e.to_string())
}

fn writer_loop(shard: usize, shared: Arc<WriterShared>, stat: Arc<ShardStat>, my_gen: u64) {
    // A failed push, whether the device refused it or the writer could
    // not start it: the event (and its fold, the shard's write-error
    // count) says why the switch went dirty.
    let mark_dirty = |switch_id: usize, trace: u64, err: &str| {
        catalogue::SHARD_WRITE_ERROR.record_note(
            trace,
            &[("shard", shard as u64), ("switch", switch_id as u64)],
            err,
        );
        stat.dirty.lock().unwrap().insert(switch_id);
        telemetry::global()
            .health
            .set(format!("shard/{shard}"), "degraded(write failed)");
    };
    let mark_clean = |switch_id: usize| {
        let mut dirty = stat.dirty.lock().unwrap();
        dirty.remove(&switch_id);
        if dirty.is_empty() {
            telemetry::global()
                .health
                .set(format!("shard/{shard}"), "ok");
        }
    };
    // Take the switch's device handle out of its slot for the duration
    // of a device call. Returns `None` (with the job failed) if the
    // switch is unknown, poisoned, or its handle is out with a
    // superseded thread.
    let take_dp = |switch_id: usize| -> Result<Box<dyn DataPlane>, String> {
        let mut switches = shared.switches.lock().unwrap();
        match switches.get_mut(&switch_id) {
            None => Err(format!("switch {switch_id} not owned by shard {shard}")),
            Some(slot) if slot.poisoned => Err(format!(
                "switch {switch_id} poisoned by watchdog; awaiting replace"
            )),
            Some(slot) => slot
                .dp
                .take()
                .ok_or_else(|| format!("switch {switch_id} handle unavailable")),
        }
    };
    // Put the handle back unless this thread was superseded mid-call:
    // then the handle is dropped (closing a presumed-stuck connection)
    // and the call's effects are discarded. Returns false on
    // supersede.
    let put_dp = |switch_id: usize, dp: Box<dyn DataPlane>| -> bool {
        *shared.inflight.lock().unwrap() = None;
        if shared.queue.generation() != my_gen {
            drop(dp);
            catalogue::SHARD_WRITER_STALE_EXIT.record_note(
                0,
                &[("shard", shard as u64), ("switch", switch_id as u64)],
                "superseded writer dropped its device handle",
            );
            return false;
        }
        let mut switches = shared.switches.lock().unwrap();
        if let Some(slot) = switches.get_mut(&switch_id) {
            if slot.poisoned {
                drop(dp);
            } else {
                slot.dp = Some(dp);
            }
        }
        true
    };
    let begin_call = |switch_id: usize| {
        *shared.inflight.lock().unwrap() = Some((switch_id, Instant::now(), my_gen));
    };

    loop {
        let job = match shared.queue.pop(my_gen) {
            Popped::Job(job) => job,
            Popped::Superseded | Popped::Closed => return,
        };
        stat.note_write_queue_depth(shared.queue.len());
        match job {
            WriteJob::Push {
                switch_id,
                push,
                traces,
            } => {
                let trace = traces.first().copied().unwrap_or(0);
                let dp = match take_dp(switch_id) {
                    Ok(dp) => dp,
                    Err(e) => {
                        mark_dirty(switch_id, trace, &e);
                        continue;
                    }
                };
                // Recorded before the device call so the timeline
                // orders the shard push before the p4.write it causes.
                let updates = push.updates.len();
                catalogue::SHARD_PUSH.record(
                    trace,
                    &[
                        ("shard", shard as u64),
                        ("switch", switch_id as u64),
                        ("updates", updates as u64),
                    ],
                );
                begin_call(switch_id);
                let started = Instant::now();
                let r = dp.push(&push, trace);
                if !put_dp(switch_id, dp) {
                    return; // superseded: no effects, no settle
                }
                match r {
                    Ok(()) => {
                        stat.write_batches.inc();
                        stat.entries_written.add(updates as u64);
                        mark_clean(switch_id);
                        // Every change the job carries has settled here.
                        let write_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                        let tel = telemetry::global();
                        for &t in &traces {
                            tel.convergence_settled(t, switch_id, Some(shard), updates, write_ns);
                        }
                    }
                    Err(e) => mark_dirty(switch_id, trace, &e),
                }
                push_us().record_duration(started.elapsed());
            }
            WriteJob::ReadAll { switch_id, reply } => {
                let r = match take_dp(switch_id) {
                    Ok(dp) => {
                        begin_call(switch_id);
                        let r = dp.read_all_tables();
                        if !put_dp(switch_id, dp) {
                            let _ = reply.send(Err(format!(
                                "shard {shard} writer superseded during read of switch {switch_id}"
                            )));
                            return;
                        }
                        r
                    }
                    Err(e) => Err(e),
                };
                let _ = reply.send(r);
            }
            WriteJob::Replace { switch_id, dp } => {
                shared.switches.lock().unwrap().insert(
                    switch_id,
                    SwitchSlot {
                        dp: Some(dp),
                        poisoned: false,
                    },
                );
            }
            WriteJob::Flush(reply) => {
                let _ = reply.send(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_shed_write_job_names_its_shard_and_switch() {
        let shard = 3;
        let policy = OverloadPolicy {
            write_queue_cap: 1,
            enqueue_deadline: Duration::from_millis(20),
            ..OverloadPolicy::default()
        };
        let queue = WriteQueue::new(policy.write_queue_cap);
        let stat = Arc::new(ShardStat::new(shard, vec![10, 11]));
        let handle = |switch_id| AsyncSwitch {
            shard,
            switch_id,
            queue: queue.clone(),
            stat: stat.clone(),
            policy: policy.clone(),
        };
        let recorder = &telemetry::global().recorder;
        let after = recorder.snapshot().last().map_or(0, |e| e.seq);

        // No writer drains this queue: switch 10's push fills it, and
        // switch 11's, which cannot merge into another switch's job, is
        // shed at the deadline.
        handle(10).write_updates(&[]).unwrap();
        assert!(handle(11).write_updates(&[]).is_err());

        let shed =
            recorder.events_where(|e| e.seq > after && e.kind == catalogue::SHARD_OVERLOAD.name);
        assert_eq!(shed.len(), 1, "{shed:?}");
        assert_eq!(shed[0].field("shard"), Some(shard as u64));
        assert_eq!(shed[0].field("switch"), Some(11));
        assert_eq!(stat.shed_inputs.get(), 1);
        assert!(stat.dirty.lock().unwrap().contains(&11));
    }

    #[test]
    fn a_push_that_never_reaches_its_device_names_its_shard_and_switch() {
        let shard = 5;
        let poisoned = SwitchSlot {
            dp: None,
            poisoned: true,
        };
        // Switch 10 is poisoned by the watchdog; switch 11 is not this
        // shard's. Neither push reaches a device.
        let shared = Arc::new(WriterShared {
            queue: WriteQueue::new(4),
            switches: Mutex::new([(10, poisoned)].into()),
            inflight: Mutex::new(None),
            writer_handle: Mutex::new(None),
        });
        let stat = Arc::new(ShardStat::new(shard, vec![10]));
        let recorder = &telemetry::global().recorder;
        let after = recorder.snapshot().last().map_or(0, |e| e.seq);
        spawn_writer(shard, shared.clone(), stat.clone(), 0).unwrap();
        for switch_id in [10, 11] {
            let push = WriteJob::Push {
                switch_id,
                push: SwitchPush::default(),
                traces: vec![],
            };
            shared.queue.push(push, None).unwrap();
        }
        let (tx, rx) = bounded(1);
        shared.queue.push(WriteJob::Flush(tx), None).unwrap();
        rx.recv().unwrap();

        let errors =
            recorder.events_where(|e| e.seq > after && e.kind == catalogue::SHARD_WRITE_ERROR.name);
        let named: Vec<_> = errors
            .iter()
            .map(|e| (e.field("shard"), e.field("switch"), e.note.is_some()))
            .collect();
        let shard = Some(shard as u64);
        assert_eq!(named, [(shard, Some(10), true), (shard, Some(11), true)]);
        assert_eq!(stat.write_errors.get(), 2);
        assert_eq!(*stat.dirty.lock().unwrap(), [10, 11].into());

        shared.queue.close();
        let writer = shared.writer_handle.lock().unwrap().take();
        writer.unwrap().join().unwrap();
    }
}
