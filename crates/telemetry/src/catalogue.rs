//! The event catalogue: every kind of flight-recorder event the stack
//! records, and every metric series derived from one.
//!
//! A kind is declared once, here: its plane, the level its events are
//! printed at, its name, and the folds that turn its events into
//! metrics — count the events, add up a field, or observe a field in a
//! histogram (also into the series labelled by another field, when the
//! event carries it). Recording through
//! [`Telemetry::record`](crate::Telemetry::record) (or [`Kind::record`]
//! for the process-wide bundle) applies the kind's folds to that
//! bundle's registry and prints the event when its level is within
//! `NERPA_LOG`, whether or not its recorder is enabled, and then pushes
//! the event onto its plane's ring. So a series that mirrors an event is
//! never bumped by hand, a fact is never logged beside its event, and
//! deriving one more series is one fold below.
//!
//! A fold labelled by a field either also writes the family's
//! unlabelled series (`nerpa_convergence_lag_ns`) or writes only the
//! labelled ones ([`Fold::count_by`]: the per-shard shed, watchdog and
//! write-error counts), so that summing such a family counts each event
//! once.
//!
//! Every series is process-wide, whoever bumps it: N controllers or N
//! shards add into one series, and nothing replaces a series' handle
//! with another instance's. An instance's own numbers are its state
//! (`Engine::commits`, the reports its calls return).
//!
//! Series no event mirrors stay plain registry handles, resolved once
//! where they are bumped, because folding one needs an event that does
//! not exist, or one on the per-op path, which would raise the events
//! recorded per change:
//!
//! - counts that include work no event records: `ovsdb_commits_total`
//!   and its duration count transactions that change nothing
//!   (`ovsdb.commit` fires only on a change), `ddlog_commits_total` and
//!   its duration include failed commits;
//! - wire bytes, fsyncs and connect attempts, which no event records;
//! - gauges (queue and outbox depths, their high-water marks, state
//!   sizes): a fold adds, a gauge is set;
//! - per-operator and per-relation series, labelled by the planner's
//!   operator numbering and by relation name, not by an event field;
//! - the per-op `controller_*` series (transactions, entries pushed,
//!   latencies, digest batches) and the shard runtime's per-shard
//!   commit, write-batch, entry, dropped-input and coalescing series,
//!   counted at points where no event is recorded one for one.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::log::Level;
use crate::metrics::{Counter, Registry, LATENCY_BOUNDS_US, SIZE_BOUNDS};
use crate::recorder::{Plane, CONVERGENCE_BOUNDS_NS};

/// How one kind's events derive one metric series.
#[derive(Debug, Clone, Copy)]
pub struct Fold {
    /// The series' family name in the exposition.
    pub series: &'static str,
    /// Its help text.
    pub help: &'static str,
    /// The field added up or observed; `None` counts the events.
    pub field: Option<&'static str>,
    /// A histogram's bucket bounds; `None` for a counter.
    pub bounds: Option<&'static [u64]>,
    /// A field whose value, when an event carries it, labels a second
    /// series the event is also folded into.
    pub by: Option<&'static str>,
    /// Whether the events also fold into the unlabelled series. `false`
    /// for a family of per-label series only, so summing the family
    /// counts each event once.
    pub total: bool,
}

impl Fold {
    /// One per event, into a counter.
    pub const fn count(series: &'static str, help: &'static str) -> Fold {
        Fold {
            series,
            help,
            field: None,
            bounds: None,
            by: None,
            total: true,
        }
    }

    /// The sum of `field`, into a counter.
    pub const fn sum(series: &'static str, help: &'static str, field: &'static str) -> Fold {
        Fold {
            field: Some(field),
            ..Fold::count(series, help)
        }
    }

    /// Each value of `field`, into a histogram.
    pub const fn histogram(
        series: &'static str,
        help: &'static str,
        field: &'static str,
        bounds: &'static [u64],
    ) -> Fold {
        Fold {
            bounds: Some(bounds),
            ..Fold::sum(series, help, field)
        }
    }

    /// One per event, into the counter labelled by the event's `by`
    /// field only.
    pub const fn count_by(series: &'static str, help: &'static str, by: &'static str) -> Fold {
        Fold {
            by: Some(by),
            total: false,
            ..Fold::count(series, help)
        }
    }

    /// The process-wide counter this fold adds to for events whose `by`
    /// field is `label`, created at 0 if no event made it yet, so the
    /// exposition shows it before the first event.
    pub fn counter_for(&self, label: u64) -> Counter {
        let by = self.by.expect("a fold labelled by a field");
        debug_assert!(self.bounds.is_none(), "{} is a histogram", self.series);
        crate::global()
            .registry
            .counter_with(self.series, self.help, &[(by, &label.to_string())])
    }
}

/// One kind of flight-recorder event.
#[derive(Debug)]
pub struct Kind {
    /// The plane whose ring holds these events.
    pub plane: Plane,
    /// The kind's name in events, dumps and `nerpa flight`.
    pub name: &'static str,
    /// The level its events are printed at: `Warn` for failures,
    /// `Info` for lifecycle steps, `Debug` for per-op events.
    pub level: Level,
    /// The series derived from these events.
    pub folds: &'static [Fold],
    /// Index in [`KINDS`]: where a registry's resolved folds are kept.
    slot: usize,
}

impl Kind {
    /// Record one event of this kind into the process-wide bundle.
    pub fn record(&self, trace: u64, fields: &[(&'static str, u64)]) {
        crate::global().record(self, trace, fields);
    }

    /// Record one event of this kind with a free-form note into the
    /// process-wide bundle (keep off hot paths).
    pub fn record_note(&self, trace: u64, fields: &[(&'static str, u64)], note: impl Into<String>) {
        crate::global().record_note(self, trace, fields, note);
    }
}

/// Declares every kind: `NAME = Plane Level "name" [folds];`. Each
/// kind's slot is its position in the list.
macro_rules! kinds {
    ($($(#[doc = $doc:literal])+ $id:ident = $plane:ident $level:ident $name:literal [$($fold:expr),* $(,)?];)+) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Slot { $($id),+ }
        $(
            $(#[doc = $doc])+
            pub const $id: Kind = Kind {
                plane: Plane::$plane,
                name: $name,
                level: Level::$level,
                folds: &[$($fold),*],
                slot: Slot::$id as usize,
            };
        )+
        /// Every kind, in declaration order.
        pub const KINDS: &[Kind] = &[$($id),+];
    };
}

kinds! {
    /// A transaction that changed rows was acknowledged (`rows`,
    /// `commit_ns`, `examined`); the convergence clock starts here.
    OVSDB_COMMIT = Management Debug "ovsdb.commit" [];
    /// A record reached the write-ahead log (`commit_index`, `bytes`).
    WAL_APPEND = Management Debug "wal.append" [
        Fold::count("ovsdb_wal_records_appended_total",
            "Transaction records appended to the OVSDB write-ahead log"),
        Fold::sum("ovsdb_wal_bytes_total", "Bytes appended to the OVSDB write-ahead log", "bytes"),
    ];
    /// A durable database was recovered (`snapshot_commit_index`,
    /// `replayed_records`, `truncated_tail`, `replay_us`).
    OVSDB_RECOVER = Management Info "ovsdb.recover" [
        Fold::histogram("ovsdb_wal_replay_duration_us",
            "WAL replay duration on database open (us)", "replay_us", &LATENCY_BOUNDS_US),
        Fold::sum("ovsdb_wal_truncated_tails_total",
            "Torn WAL tails detected and truncated during recovery", "truncated_tail"),
    ];
    /// A monitor update entered a subscriber's outbox (`conn`, `rows`).
    OVSDB_MONITOR_FANOUT = Management Debug "ovsdb.monitor_fanout" [
        Fold::count("ovsdb_monitor_notifications_total",
            "Monitor update notifications fanned out to subscribers"),
    ];
    /// A slow subscriber was evicted (`conn`, `outbox`, `deadline_ms`).
    OVSDB_MONITOR_EVICT = Management Warn "ovsdb.monitor_evict" [
        Fold::count("ovsdb_monitor_evictions_total",
            "Monitor subscribers evicted for failing to drain their outbox in time"),
    ];
    /// The server accepted a client connection (`conn`).
    OVSDB_CONNECT = Management Info "ovsdb.connect" [
        Fold::count("ovsdb_connections_total", "Client connections accepted by the OVSDB server"),
    ];
    /// A write to a connection failed, so its subscriptions were dropped
    /// (`conn`; the note says why).
    OVSDB_WRITE_ERROR = Management Warn "ovsdb.write_error" [
        Fold::count("ovsdb_monitor_disconnects_total",
            "Monitor connections torn down after a failed socket write"),
    ];
    /// A transaction was aborted because its WAL record could not be
    /// appended (`commit_index`; the note says why).
    WAL_APPEND_ERROR = Management Warn "wal.append_error" [];
    /// The full state was snapshotted and the log truncated
    /// (`commit_index`, `tables`).
    WAL_COMPACT = Management Info "wal.compact" [
        Fold::count("ovsdb_wal_snapshot_compactions_total",
            "Snapshot compactions (full-state snapshot + log truncation)"),
    ];
    /// A compaction failed; the transaction that was due to trigger it
    /// stays committed (`commit_index`; the note says why).
    WAL_COMPACT_ERROR = Management Warn "wal.compact_error" [];
    /// An engine transaction committed (`input_tuples`,
    /// `output_changes`, `work_tuples`, `arrange_maintained`, `wall_ns`).
    DDLOG_APPLY = Control Debug "ddlog.apply" [
        Fold::sum("ddlog_output_changes_total", "Output relation row changes emitted",
            "output_changes"),
    ];
    /// The incrementality audit rejected a commit (`work_tuples`).
    DDLOG_AUDIT_TRIP = Control Warn "ddlog.audit_trip" [];
    /// A change's rows were routed to a shard (`shard`, `rows`).
    SHARD_ROUTE = Control Debug "shard.route" [];
    /// An input is about to enter a shard's queue (`shard`, `depth`).
    SHARD_ENQUEUE = Control Debug "shard.enqueue" [];
    /// A shard input or writer job was shed past its deadline (`shard`,
    /// and `switch` for a writer job).
    SHARD_OVERLOAD = Control Warn "shard.overload" [
        Fold::count_by("nerpa_shard_shed_inputs_total",
            "Inputs or write jobs shed after the enqueue deadline on a full queue", "shard"),
    ];
    /// A writer stuck in a device call was superseded (`shard`,
    /// `switch`, `generation`).
    SHARD_WATCHDOG_FIRE = Control Warn "shard.watchdog_fire" [
        Fold::count_by("nerpa_shard_watchdog_restarts_total",
            "Writer threads superseded and respawned by the push watchdog", "shard"),
    ];
    /// A superseded writer dropped its device handle (`shard`, `switch`).
    SHARD_WRITER_STALE_EXIT = Control Info "shard.writer_stale_exit" [];
    /// A shard writer is pushing to a switch (`shard`, `switch`,
    /// `updates`).
    SHARD_PUSH = Control Debug "shard.push" [];
    /// A shard writer's push failed, at the device or before reaching
    /// it (`shard`, `switch`; the note says why).
    SHARD_WRITE_ERROR = Control Warn "shard.write_error" [
        Fold::count_by("nerpa_shard_write_errors_total", "Failed device pushes, per shard", "shard"),
    ];
    /// A shard input (changes, digests, a resync or a reconcile) failed
    /// in its worker (`shard`; the note says why).
    SHARD_INPUT_ERROR = Control Warn "shard.input_error" [
        Fold::count_by("nerpa_shard_commit_errors_total", "Failed shard commits, per shard", "shard"),
    ];
    /// An input was dropped because the shard's worker is gone (`shard`).
    SHARD_WORKER_GONE = Control Warn "shard.worker_gone" [];
    /// The watchdog superseded a writer but could not start its
    /// replacement (`shard`, `generation`; the note says why).
    SHARD_RESPAWN_ERROR = Control Warn "shard.respawn_error" [];
    /// A device applied a write batch (`updates`).
    P4_WRITE = Data Debug "p4.write" [
        Fold::count("p4_write_batches_total", "P4Runtime write batches applied to switch devices"),
        Fold::sum("p4_write_updates_total",
            "Individual table updates applied to switch devices", "updates"),
        Fold::histogram("p4_write_batch_size", "Updates per P4Runtime write batch", "updates",
            &SIZE_BOUNDS),
    ];
    /// A device rejected a write batch (`updates`): still a batch, so
    /// also folded into `p4.write`'s three series.
    P4_WRITE_ERROR = Data Warn "p4.write_error" [
        P4_WRITE.folds[0],
        P4_WRITE.folds[1],
        P4_WRITE.folds[2],
        Fold::count("p4_write_errors_total", "P4Runtime write batches rejected by switch devices"),
    ];
    /// A packet raised digests (`digests`, `port`).
    P4_DIGEST = Data Debug "p4.digest" [
        Fold::sum("p4_digests_total", "Digest messages fanned out to subscribers", "digests"),
    ];
    /// A switch acknowledged its last device call for a trace
    /// (`switch`, `updates`, `write_ns`, `lag_ns`, and `shard` when
    /// sharded): every convergence view reads these.
    CONVERGENCE_SETTLED = Data Debug "convergence.settled" [
        Fold {
            by: Some("shard"),
            ..Fold::histogram("nerpa_convergence_lag_ns",
                "Commit-to-data-plane convergence lag: OVSDB ack to a switch write settling the trace, nanoseconds",
                "lag_ns", &CONVERGENCE_BOUNDS_NS)
        },
    ];
    /// A supervisor sleeps before reconnecting (`attempt`, `delay_us`).
    RESYNC_BACKOFF = Stack Info "resync.backoff" [
        Fold::histogram("resync_backoff_delay_us",
            "Backoff delays slept before reconnection attempts (us)", "delay_us", &LATENCY_BOUNDS_US),
    ];
    /// A supervisor reconnected and resynced (`attempts`, `delta_ops`,
    /// `epoch_reset`).
    RESYNC_RECONNECT = Stack Info "resync.reconnect" [
        Fold::count("resync_connects_total", "Successful OVSDB (re)connections by supervisors"),
        Fold::histogram("resync_delta_ops",
            "Operations per snapshot resync (the incrementality invariant)", "delta_ops", &SIZE_BOUNDS),
        Fold::sum("resync_epoch_resets_total",
            "Server restarts detected via a lower commit index (full resync forced)", "epoch_reset"),
    ];
    /// A supervisor's connect attempt failed (`attempt`; the note says
    /// why).
    RESYNC_CONNECT_ERROR = Stack Warn "resync.connect_error" [];
    /// A supervised controller's monitor link died; it reconnects.
    RESYNC_LINK_LOST = Stack Warn "resync.link_lost" [];
    /// A controller diffed its engine against a snapshot and committed
    /// the difference (`snapshot_rows`, `inserts`, `deletes`, `tables`).
    CONTROLLER_RESYNC = Stack Info "controller.resync" [
        Fold::count("controller_resyncs_total", "Snapshot resyncs after OVSDB reconnects"),
    ];
    /// A switch was reconciled with the engine's desired state
    /// (`switch`, `inserted`, `deleted`, `unchanged`).
    CONTROLLER_RECONCILE = Stack Info "controller.reconcile" [
        Fold::count("controller_reconciles_total",
            "Switch reconciliations after data-plane restarts"),
    ];
    /// A switch's reconcile failed (`switch`; the note holds the error).
    CONTROLLER_RECONCILE_ERROR = Stack Warn "controller.reconcile_error" [];
    /// A failure signal was raised; the note names its source.
    FAILURE_SIGNAL = Stack Info "failure.signal" [];
    /// A fault was injected; the note names it.
    CHAOS_FAULT = Chaos Info "chaos.fault" [];
}

// ------------------------------------------------------ fold application

/// A series handle: adds to a counter or observes into a histogram.
type Handle = Box<dyn Fn(u64) + Send + Sync>;

fn handle(fold: &Fold, registry: &Registry, labels: &[(&str, &str)]) -> Handle {
    let (series, help) = (fold.series, fold.help);
    match fold.bounds {
        None => {
            let c = registry.counter_with(series, help, labels);
            Box::new(move |v| c.add(v))
        }
        Some(b) => {
            let h = registry.histogram_with(series, help, labels, b);
            Box::new(move |v| h.record(v))
        }
    }
}

/// One fold in one registry: its unlabelled series unless the fold has
/// none, and for a fold with a `by` field its labelled series by label
/// value, grown on first use.
type Sink = (Option<Handle>, Option<Mutex<BTreeMap<u64, Handle>>>);

/// Every kind's folds resolved against one registry, which holds every
/// catalogued unlabelled series from the start.
pub(crate) struct Sinks(Vec<Vec<Sink>>);

impl Sinks {
    pub(crate) fn new(registry: &Registry) -> Sinks {
        let sink = |f: &Fold| {
            let total = f.total.then(|| handle(f, registry, &[]));
            (total, f.by.map(|_| Default::default()))
        };
        Sinks(
            KINDS
                .iter()
                .map(|k| k.folds.iter().map(sink).collect())
                .collect(),
        )
    }

    /// Apply `kind`'s folds to one event's fields.
    pub(crate) fn apply(&self, registry: &Registry, kind: &Kind, fields: &[(&'static str, u64)]) {
        let field = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        for (fold, (series, labelled)) in kind.folds.iter().zip(&self.0[kind.slot]) {
            let Some(value) = fold.field.map_or(Some(1), field) else {
                debug_assert!(false, "{} recorded without {:?}", kind.name, fold.field);
                continue;
            };
            if let Some(series) = series {
                series(value);
            }
            let (Some(labelled), Some(by)) = (labelled, fold.by) else {
                continue;
            };
            let Some(label) = field(by) else {
                continue;
            };
            // Each update is one insert, so a poisoned map is whole.
            let mut labelled = labelled.lock().unwrap_or_else(|e| e.into_inner());
            let series = labelled
                .entry(label)
                .or_insert_with(|| handle(fold, registry, &[(by, &label.to_string())]));
            series(value);
        }
    }
}
