//! Cross-plane observability substrate for the full-stack SDN.
//!
//! All std-only:
//!
//! - a **metrics registry** ([`Registry`]) of named atomic counters,
//!   gauges, and fixed-bucket histograms with Prometheus-style text and
//!   JSON exposition;
//! - the **flight recorder** ([`FlightRecorder`]): per-plane rings of
//!   structured events, each stamped with the causal trace id minted
//!   when a management-plane transaction commits. Events are the one
//!   record of a change's path: per-plane timing trees ([`SpanTree`]) and
//!   convergence lag are derived from them on demand;
//! - the **event [`catalogue`]**: every event kind with its plane and
//!   the metric series folded from it as it is recorded;
//! - a **live introspection endpoint** ([`IntrospectionServer`])
//!   serving `/metrics`, `/traces`, `/convergence`, `/flight`, and
//!   `/health` over HTTP.
//!
//! A log line is a recorded event: each kind has a constant [`Level`],
//! and recording prints the event to stderr when that level is within
//! `NERPA_LOG` ([`log`]); below it, the check costs one relaxed atomic
//! load.

#![warn(missing_docs)]

pub mod catalogue;
pub mod health;
pub mod log;
pub mod metrics;
pub mod recorder;
pub mod server;
pub mod trace;

pub use catalogue::Kind;
use catalogue::{Sinks, CONVERGENCE_SETTLED as SETTLED, DDLOG_APPLY};
pub use health::Health;
pub use log::Level;
pub use metrics::{
    format_labels, validate_exposition, Counter, Gauge, Histogram, MetricKind, Registry,
    LATENCY_BOUNDS_US, SIZE_BOUNDS,
};
use recorder::ConvergenceTracker;
pub use recorder::{
    Event, FlightRecorder, Plane, CONVERGENCE_BOUNDS_NS, MAX_EVENT_FIELDS, NFR_VERSION,
};
pub use server::{http_get, IntrospectionServer};
pub use trace::{next_trace_id, EventView, Span, SpanTree};

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

/// A pluggable introspection page: content type plus a render callback
/// invoked on every request.
struct Page {
    content_type: &'static str,
    render: Box<dyn Fn() -> String + Send + Sync>,
}

/// Span trees served on `/traces`: the most recent traces.
const TRACES_SHOWN: usize = 256;

/// The bundle served by one introspection endpoint: a registry, a
/// health board, and the flight recorder every trace view derives from.
pub struct Telemetry {
    /// Named metric families.
    pub registry: Registry,
    /// Connection health board.
    pub health: Health,
    /// The flight recorder: per-plane event rings and `.nfr` dumps.
    pub recorder: FlightRecorder,
    /// The catalogue's folds, resolved against `registry`.
    sinks: Sinks,
    /// Each open trace's convergence clock.
    convergence: ConvergenceTracker,
    /// Extra endpoint pages registered by components (e.g. `/dataflow`).
    pages: Mutex<BTreeMap<String, Page>>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh, empty bundle.
    pub fn new() -> Telemetry {
        let registry = Registry::new();
        let recorder = FlightRecorder::new(&registry);
        Telemetry {
            sinks: Sinks::new(&registry),
            registry,
            health: Health::default(),
            recorder,
            convergence: ConvergenceTracker::default(),
            pages: Mutex::new(BTreeMap::new()),
        }
    }

    /// Record one event of a catalogued kind: apply the kind's folds to
    /// this bundle's registry, print the event when its kind's level is
    /// within `NERPA_LOG` (both also while the recorder is disabled),
    /// then push the event onto its plane's ring.
    pub fn record(&self, kind: &Kind, trace: u64, fields: &[(&'static str, u64)]) {
        self.emit(kind, trace, fields, None);
    }

    /// [`Telemetry::record`] with a free-form note (keep off hot paths).
    pub fn record_note(
        &self,
        kind: &Kind,
        trace: u64,
        fields: &[(&'static str, u64)],
        note: impl Into<String>,
    ) {
        self.emit(kind, trace, fields, Some(note.into()));
    }

    /// The one recording path.
    fn emit(&self, kind: &Kind, trace: u64, fields: &[(&'static str, u64)], note: Option<String>) {
        self.sinks.apply(&self.registry, kind, fields);
        let echo = log::enabled(kind.level);
        let keep = self.recorder.is_enabled();
        if !echo && !keep {
            return;
        }
        let ev = self
            .recorder
            .stamp(kind.plane, kind.name, trace, fields, note);
        if echo {
            log::echo(kind.level, &ev);
        }
        if keep {
            self.recorder.push(ev);
        }
    }

    /// Start a trace's convergence clock: the management plane
    /// acknowledged the commit carrying `trace`.
    pub fn convergence_begin(&self, trace: u64) {
        self.convergence.begin(trace, self.recorder.now_ns());
    }

    /// Switch `switch` acknowledged its last device call for `trace`
    /// (`updates` table entries, `write_ns` spent in the device calls):
    /// record the lag from the trace's begin anchor as the
    /// `convergence.settled` event every convergence view, the trace's
    /// `p4.write` span and `nerpa_convergence_lag_ns` (global, plus the
    /// shard's series) are derived from. Traces without an anchor
    /// (evicted, or begun in another process) are not settled.
    pub fn convergence_settled(
        &self,
        trace: u64,
        switch: usize,
        shard: Option<usize>,
        updates: usize,
        write_ns: u64,
    ) {
        let now = self.recorder.now_ns();
        let Some(lag) = self.convergence.settle(trace, now) else {
            return;
        };
        let fields = [
            ("switch", switch as u64),
            ("updates", updates as u64),
            ("write_ns", write_ns),
            ("lag_ns", lag),
            ("shard", shard.unwrap_or(0) as u64),
        ];
        let n = if shard.is_some() { 5 } else { 4 };
        self.record(&SETTLED, trace, &fields[..n]);
    }

    /// The largest lag recorded for `trace` (its last switch to
    /// settle), if its settlements are still buffered.
    pub fn lag_of(&self, trace: u64) -> Option<u64> {
        self.recorder
            .events_where(|e| e.trace == trace && e.kind == SETTLED.name)
            .iter()
            .filter_map(|e| e.field("lag_ns"))
            .max()
    }

    /// The `/convergence` page: anchors begun and held, plus one entry
    /// per trace with a buffered settlement (first settled first): its
    /// begin time, largest lag, settling writes and last shard.
    pub fn render_convergence(&self) -> String {
        let mut order: Vec<u64> = Vec::new();
        let mut traces: HashMap<u64, (u64, u64, u64, Option<u64>)> = HashMap::new();
        let mut settled = 0;
        for e in self.recorder.events_where(|e| e.kind == SETTLED.name) {
            let lag = e.field("lag_ns").unwrap_or(0);
            settled += 1;
            let entry = traces.entry(e.trace).or_insert_with(|| {
                order.push(e.trace);
                (e.ts_ns.saturating_sub(lag), lag, 0, None)
            });
            entry.1 = entry.1.max(lag);
            entry.2 += 1;
            entry.3 = e.field("shard").or(entry.3);
        }
        let recent: Vec<String> = order
            .iter()
            .map(|t| {
                let (begin_ns, lag_ns, writes, shard) = traces[t];
                let shard = shard.map(|s| format!(",\"shard\":{s}")).unwrap_or_default();
                format!(
                    "{{\"trace\":{t},\"begin_ns\":{begin_ns},\"lag_ns\":{lag_ns},\"writes\":{writes}{shard}}}"
                )
            })
            .collect();
        format!(
            "{{\"begun\":{},\"settled\":{settled},\"open\":{},\"recent\":[{}]}}",
            self.convergence.begun(),
            self.convergence.open(),
            recent.join(",")
        )
    }

    /// The span tree of one trace, derived from the buffered events.
    pub fn trace(&self, trace: u64) -> Option<SpanTree> {
        let events = self.recorder.events_where(|e| e.trace == trace);
        SpanTree::derive(trace, events.iter().map(Event::view))
    }

    /// Span trees of the most recent changes an engine applied, oldest
    /// first (ordered by their last `ddlog.apply`) — `/traces`, and an
    /// oracle failure's last trace. One snapshot serves both the choice
    /// and the trees, so a tree always holds the apply it was chosen by.
    pub fn traces(&self) -> Vec<SpanTree> {
        let events = self
            .recorder
            .events_where(|e| e.trace != 0 && trace::is_stage(e.kind));
        let mut newest_first: Vec<u64> = Vec::new();
        for e in events.iter().rev().filter(|e| e.kind == DDLOG_APPLY.name) {
            if newest_first.len() < TRACES_SHOWN && !newest_first.contains(&e.trace) {
                newest_first.push(e.trace);
            }
        }
        let mine = |t: u64| events.iter().filter(move |e| e.trace == t).map(Event::view);
        newest_first
            .iter()
            .rev()
            .filter_map(|&t| SpanTree::derive(t, mine(t)))
            .collect()
    }

    /// Register (or replace) an extra page at `path` (must start with
    /// `/`). The callback runs on every request to that path.
    pub fn register_page(
        &self,
        path: &str,
        content_type: &'static str,
        render: impl Fn() -> String + Send + Sync + 'static,
    ) {
        assert!(path.starts_with('/'), "page path must start with '/'");
        self.pages.lock().unwrap().insert(
            path.to_string(),
            Page {
                content_type,
                render: Box::new(render),
            },
        );
    }

    /// Render the registered page at `path`, if any.
    pub fn render_page(&self, path: &str) -> Option<(&'static str, String)> {
        let pages = self.pages.lock().unwrap();
        let page = pages.get(path)?;
        Some((page.content_type, (page.render)()))
    }
}

/// The process-wide telemetry bundle. Components register here by
/// default so one endpoint exposes the whole stack; tests that need
/// isolation construct their own [`Telemetry`].
pub fn global() -> &'static Arc<Telemetry> {
    static GLOBAL: OnceLock<Arc<Telemetry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Telemetry::new()))
}

/// Dump the process-wide registry when `NERPA_METRICS` is set (`json`
/// for JSON, anything else for Prometheus text). Report binaries and
/// `nerpa prof` call this last, so a run can attach the raw counters and
/// histograms behind its table.
pub fn dump_metrics_snapshot() {
    let Ok(mode) = std::env::var("NERPA_METRICS") else {
        return;
    };
    let registry = &global().registry;
    if mode == "json" {
        println!("\n{}", registry.render_json());
    } else {
        print!("\n{}", registry.render_text());
    }
}

/// Raise a failure signal on the process-wide recorder: records a
/// `failure.signal` event and, when a dump directory is armed, writes
/// an `.nfr` snapshot of every ring. Returns the dump path if written.
pub fn failure_signal(source: &'static str, note: &str) -> Option<std::path::PathBuf> {
    catalogue::FAILURE_SIGNAL.record_note(0, &[], format!("{source}: {note}"));
    global().recorder.failure_dump(source, note)
}
