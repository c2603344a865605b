//! The flight recorder: a bounded, always-on structured event journal
//! — the stack's black box.
//!
//! Every plane records fixed-size [`Event`]s into its own
//! fixed-capacity ring buffer: a slot is claimed with one atomic
//! `fetch_add` (writers never contend on a shared lock, only on the
//! same slot when the ring wraps), stamped with a process-wide
//! monotonic sequence number and the causal trace id the commit
//! carries, then overwritten by later events once the ring is full.
//! Memory is bounded no matter how long the process runs, and an idle
//! stack costs nothing.
//!
//! On a failure signal — an oracle invariant violation, an
//! incrementality-audit trip, a health transition to degraded, crash
//! recovery, the end of a chaos run — the recorder snapshots all rings
//! into a versioned `.nfr` dump file (NDJSON: one header line, one
//! line per event). `nerpa flight` merges and causally orders dumps into
//! a cross-plane timeline.
//!
//! Events are the one record of a change's path: span trees
//! ([`crate::SpanTree::derive`]) and convergence lag are views of them,
//! not separate ledgers.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::{json_string, Counter, Registry};
use crate::trace::EventView;

/// The `.nfr` dump format version written by this recorder.
pub const NFR_VERSION: u32 = 1;

/// Events kept per plane before the ring wraps.
pub const RING_CAP: usize = 4096;

/// Auto-dumps a recorder will write before going quiet (a chaos run
/// flipping health up and down must not fill the disk).
const DUMP_BUDGET: u64 = 16;

/// Which plane recorded an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plane {
    /// OVSDB: commits, WAL appends, monitor fan-out, recovery.
    Management,
    /// DDlog and the controller: applies, audits, routing.
    Control,
    /// Switches: P4Runtime writes, digests.
    Data,
    /// Cross-plane stack machinery: supervisor, health, failures.
    Stack,
    /// Injected faults.
    Chaos,
}

/// All planes, in ring order.
pub const PLANES: [Plane; 5] = [
    Plane::Management,
    Plane::Control,
    Plane::Data,
    Plane::Stack,
    Plane::Chaos,
];

impl Plane {
    /// The plane's exposition name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Plane::Management => "management",
            Plane::Control => "control",
            Plane::Data => "data",
            Plane::Stack => "stack",
            Plane::Chaos => "chaos",
        }
    }

    fn index(&self) -> usize {
        match self {
            Plane::Management => 0,
            Plane::Control => 1,
            Plane::Data => 2,
            Plane::Stack => 3,
            Plane::Chaos => 4,
        }
    }
}

/// Maximum named fields an event can carry; extras are dropped. Inline
/// storage keeps the record hot path allocation-free — the overhead
/// gate (`report_recorder_overhead`) depends on it.
pub const MAX_EVENT_FIELDS: usize = 8;

/// An event's named numeric fields, stored inline. Dereferences to a
/// slice of the populated prefix.
#[derive(Clone, Copy, Debug)]
pub struct FieldSet {
    len: u8,
    buf: [(&'static str, u64); MAX_EVENT_FIELDS],
}

impl FieldSet {
    fn from_slice(fields: &[(&'static str, u64)]) -> FieldSet {
        let mut buf = [("", 0u64); MAX_EVENT_FIELDS];
        let len = fields.len().min(MAX_EVENT_FIELDS);
        buf[..len].copy_from_slice(&fields[..len]);
        FieldSet {
            len: len as u8,
            buf,
        }
    }
}

impl std::ops::Deref for FieldSet {
    type Target = [(&'static str, u64)];

    fn deref(&self) -> &Self::Target {
        &self.buf[..self.len as usize]
    }
}

impl PartialEq for FieldSet {
    fn eq(&self, other: &FieldSet) -> bool {
        **self == **other
    }
}

/// One recorded event. `fields` carry numeric payload (counts, ids,
/// durations); `note` is an optional free-form detail, kept off the
/// hot paths.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Process-wide monotonic sequence number: the causal order.
    pub seq: u64,
    /// Nanoseconds since the recorder started.
    pub ts_ns: u64,
    /// The recording plane.
    pub plane: Plane,
    /// Event kind (`ovsdb.commit`, `ddlog.apply`, `shard.write`, ...).
    pub kind: &'static str,
    /// The causal trace id this event belongs to; 0 = untraced.
    pub trace: u64,
    /// Named numeric payload fields.
    pub fields: FieldSet,
    /// Optional free-form detail.
    pub note: Option<String>,
}

impl Event {
    /// The value of the named field, if the event carries it.
    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// The event as span derivation reads it, on the recorder's clock.
    pub fn view(&self) -> EventView<'_> {
        EventView {
            at_ns: self.ts_ns,
            kind: self.kind,
            fields: self.fields.to_vec(),
        }
    }

    /// Render as one `.nfr` NDJSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"ts_ns\":{},\"plane\":\"{}\",\"kind\":{},\"trace\":{},\"fields\":{{",
            self.seq,
            self.ts_ns,
            self.plane.as_str(),
            json_string(self.kind),
            self.trace
        );
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_string(k)));
        }
        out.push('}');
        if let Some(note) = &self.note {
            out.push_str(&format!(",\"note\":{}", json_string(note)));
        }
        out.push('}');
        out
    }
}

/// One plane's ring: slots claimed by an atomic cursor, each guarded by
/// its own tiny mutex (contended only when the ring wraps onto a slot
/// another thread is still filling).
struct Ring {
    slots: Vec<Mutex<Option<Event>>>,
    /// Events ever recorded into this ring (head % capacity = next slot).
    head: AtomicU64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, ev: Event) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        *self.slots[slot].lock().unwrap() = Some(ev);
    }

    fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    fn snapshot(&self, keep: &impl Fn(&Event) -> bool, out: &mut Vec<Event>) {
        for slot in &self.slots {
            if let Some(ev) = slot.lock().unwrap().as_ref().filter(|ev| keep(ev)) {
                out.push(ev.clone());
            }
        }
    }
}

/// The flight recorder: per-plane rings plus dump machinery.
pub struct FlightRecorder {
    start: Instant,
    /// Wall-clock anchor (unix ms at `start`) so dumps from different
    /// processes can be lined up.
    start_unix_ms: u64,
    enabled: AtomicBool,
    seq: AtomicU64,
    rings: Vec<Ring>,
    /// Directory for automatic failure dumps; `None` = not armed
    /// (the `NERPA_FLIGHT_DIR` env var also arms).
    dump_dir: Mutex<Option<PathBuf>>,
    dumps_remaining: AtomicU64,
    dump_seq: AtomicU64,
    events_total: Counter,
    dumps_total: Counter,
}

impl FlightRecorder {
    /// A fresh recorder whose own counters live in `registry`.
    pub fn new(registry: &Registry) -> FlightRecorder {
        let start_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        FlightRecorder {
            start: Instant::now(),
            start_unix_ms,
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(1),
            rings: (0..PLANES.len()).map(|_| Ring::new(RING_CAP)).collect(),
            dump_dir: Mutex::new(None),
            dumps_remaining: AtomicU64::new(DUMP_BUDGET),
            dump_seq: AtomicU64::new(0),
            events_total: registry.counter(
                "nerpa_flight_events_total",
                "Events recorded by the flight recorder across all planes",
            ),
            dumps_total: registry.counter(
                "nerpa_flight_dumps_total",
                ".nfr dump files written by the flight recorder",
            ),
        }
    }

    /// Enable or disable recording (the overhead bench measures both
    /// sides of this switch). Disabled recording costs one relaxed
    /// atomic load per call site.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the recorder started (the event clock).
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Record one event.
    pub fn record(
        &self,
        plane: Plane,
        kind: &'static str,
        trace: u64,
        fields: &[(&'static str, u64)],
    ) {
        self.record_inner(plane, kind, trace, fields, None);
    }

    /// Record one event with a free-form note (keep off hot paths).
    pub fn record_note(
        &self,
        plane: Plane,
        kind: &'static str,
        trace: u64,
        fields: &[(&'static str, u64)],
        note: impl Into<String>,
    ) {
        self.record_inner(plane, kind, trace, fields, Some(note.into()));
    }

    fn record_inner(
        &self,
        plane: Plane,
        kind: &'static str,
        trace: u64,
        fields: &[(&'static str, u64)],
        note: Option<String>,
    ) {
        if self.is_enabled() {
            self.push(self.stamp(plane, kind, trace, fields, note));
        }
    }

    /// An event as of now: the next sequence number, the event clock.
    pub(crate) fn stamp(
        &self,
        plane: Plane,
        kind: &'static str,
        trace: u64,
        fields: &[(&'static str, u64)],
        note: Option<String>,
    ) -> Event {
        Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ts_ns: self.now_ns(),
            plane,
            kind,
            trace,
            fields: FieldSet::from_slice(fields),
            note,
        }
    }

    /// Push a stamped event onto its plane's ring.
    pub(crate) fn push(&self, ev: Event) {
        self.rings[ev.plane.index()].push(ev);
        self.events_total.inc();
    }

    /// Events ever recorded into one plane's ring (including
    /// overwritten ones).
    pub fn recorded(&self, plane: Plane) -> u64 {
        self.rings[plane.index()].recorded()
    }

    /// All currently buffered events across every plane, in causal
    /// (sequence) order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events_where(|_| true)
    }

    /// The buffered events `keep` accepts, in causal order; the others
    /// are never copied.
    pub fn events_where(&self, keep: impl Fn(&Event) -> bool) -> Vec<Event> {
        let mut out = Vec::new();
        for ring in &self.rings {
            ring.snapshot(&keep, &mut out);
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Arm automatic failure dumps into `dir`.
    pub fn arm(&self, dir: impl Into<PathBuf>) {
        *self.dump_dir.lock().unwrap() = Some(dir.into());
    }

    /// The armed dump directory, if any: an explicit [`arm`] wins,
    /// otherwise the `NERPA_FLIGHT_DIR` env var.
    ///
    /// [`arm`]: FlightRecorder::arm
    pub fn armed_dir(&self) -> Option<PathBuf> {
        if let Some(dir) = self.dump_dir.lock().unwrap().clone() {
            return Some(dir);
        }
        std::env::var_os("NERPA_FLIGHT_DIR").map(PathBuf::from)
    }

    /// Render the full `.nfr` dump: a header line followed by one line
    /// per buffered event, sequence-ordered.
    pub fn render_dump(&self, reason: &str) -> String {
        let events = self.snapshot();
        let mut planes = String::new();
        for (i, p) in PLANES.iter().enumerate() {
            if i > 0 {
                planes.push(',');
            }
            planes.push_str(&format!(
                "\"{}\":{{\"recorded\":{},\"capacity\":{}}}",
                p.as_str(),
                self.recorded(*p),
                RING_CAP
            ));
        }
        let mut out = format!(
            "{{\"nfr\":{NFR_VERSION},\"reason\":{},\"start_unix_ms\":{},\"events\":{},\"planes\":{{{planes}}}}}\n",
            json_string(reason),
            self.start_unix_ms,
            events.len()
        );
        for ev in &events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Write a `.nfr` dump to `path` (parent directories are created).
    pub fn dump_to(&self, path: &Path, reason: &str) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.render_dump(reason))?;
        self.dumps_total.inc();
        Ok(())
    }

    /// Write a uniquely-named `.nfr` dump into `dir` and return its
    /// path. Names are `<stem>-<pid>-<n>.nfr`, collision-free within
    /// and across concurrent processes.
    pub fn dump_into(&self, dir: &Path, stem: &str, reason: &str) -> std::io::Result<PathBuf> {
        let n = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{stem}-{}-{n}.nfr", std::process::id()));
        self.dump_to(&path, reason)?;
        Ok(path)
    }

    /// A failure signal's dump: if a dump directory is armed and the
    /// budget allows, snapshot all rings to a dump file named after
    /// `source`. Returns the dump path if one was written.
    pub fn failure_dump(&self, source: &'static str, note: &str) -> Option<PathBuf> {
        let dir = self.armed_dir()?;
        let remaining = self
            .dumps_remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok();
        if !remaining {
            return None;
        }
        self.dump_into(&dir, source, note).ok()
    }
}

// -------------------------------------------------------- convergence

/// Bucket bounds (nanoseconds) for `nerpa_convergence_lag_ns`:
/// 50µs up to 2.5s, plus the implicit overflow bucket.
pub const CONVERGENCE_BOUNDS_NS: [u64; 14] = [
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    1_000_000_000,
    2_500_000_000,
];

/// Begin anchors kept before the oldest is evicted.
const ANCHOR_CAP: usize = 1024;

/// The convergence clock of each open trace: when its commit was
/// acknowledged. This is the one fact about convergence no event can
/// carry — a shard writer is handed only a `u64` trace id — so it is
/// kept here, in a bounded index that begins and settles in O(1).
/// Everything else (per-trace lag, writes, `/convergence`) is read back
/// from the `convergence.settled` events.
#[derive(Default)]
pub(crate) struct ConvergenceTracker {
    anchors: Mutex<Anchors>,
}

#[derive(Default)]
struct Anchors {
    /// Trace id → begin timestamp (recorder clock, ns).
    at: HashMap<u64, u64>,
    /// Anchored traces, oldest first, for eviction.
    order: VecDeque<u64>,
    /// Traces anchored since start (evicted ones included).
    begun: u64,
}

impl ConvergenceTracker {
    /// Start a trace's convergence clock at OVSDB ack time. Repeat
    /// calls for the same trace keep the first (earliest) anchor.
    pub(crate) fn begin(&self, trace: u64, now_ns: u64) {
        if trace == 0 {
            return;
        }
        let mut a = self.anchors.lock().unwrap();
        if a.at.contains_key(&trace) {
            return;
        }
        if a.order.len() == ANCHOR_CAP {
            if let Some(oldest) = a.order.pop_front() {
                a.at.remove(&oldest);
            }
        }
        a.order.push_back(trace);
        a.at.insert(trace, now_ns);
        a.begun += 1;
    }

    /// The lag of a switch write carrying `trace` that settled at
    /// `now_ns`. `None` for a trace with no anchor (evicted, or begun
    /// in another process).
    pub(crate) fn settle(&self, trace: u64, now_ns: u64) -> Option<u64> {
        let a = self.anchors.lock().unwrap();
        Some(now_ns.saturating_sub(*a.at.get(&trace)?))
    }

    /// Traces whose convergence clock was started.
    pub(crate) fn begun(&self) -> u64 {
        self.anchors.lock().unwrap().begun
    }

    /// Anchors currently held.
    pub(crate) fn open(&self) -> usize {
        self.anchors.lock().unwrap().order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> (Registry, FlightRecorder) {
        let registry = Registry::new();
        let rec = FlightRecorder::new(&registry);
        (registry, rec)
    }

    #[test]
    fn events_are_sequence_ordered_across_planes() {
        let (_r, rec) = recorder();
        rec.record(Plane::Management, "ovsdb.commit", 7, &[("rows", 3)]);
        rec.record(Plane::Control, "ddlog.apply", 7, &[("work", 12)]);
        rec.record(Plane::Data, "p4.write", 7, &[("updates", 2)]);
        let events = rec.snapshot();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(events[0].kind, "ovsdb.commit");
        assert_eq!(events[2].plane, Plane::Data);
        assert!(events.iter().all(|e| e.trace == 7));
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let (_r, rec) = recorder();
        for i in 0..(RING_CAP as u64 + 50) {
            rec.record(Plane::Chaos, "chaos.fault", 0, &[("n", i)]);
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), RING_CAP);
        assert_eq!(rec.recorded(Plane::Chaos), RING_CAP as u64 + 50);
        // The oldest 50 were overwritten.
        assert_eq!(events[0].fields[0].1, 50);
        assert_eq!(events.last().unwrap().fields[0].1, RING_CAP as u64 + 49);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let (_r, rec) = recorder();
        rec.set_enabled(false);
        rec.record(Plane::Stack, "x", 0, &[]);
        assert!(rec.snapshot().is_empty());
        rec.set_enabled(true);
        rec.record(Plane::Stack, "x", 0, &[]);
        assert_eq!(rec.snapshot().len(), 1);
    }

    #[test]
    fn dump_renders_header_and_events() {
        let (_r, rec) = recorder();
        rec.record_note(
            Plane::Management,
            "ovsdb.commit",
            3,
            &[("rows", 1)],
            "hello \"world\"",
        );
        let dump = rec.render_dump("test");
        let mut lines = dump.lines();
        let header = lines.next().unwrap();
        assert!(
            header.contains(&format!("\"nfr\":{NFR_VERSION}")),
            "{header}"
        );
        assert!(header.contains("\"reason\":\"test\""));
        assert!(header.contains("\"events\":1"));
        let ev = lines.next().unwrap();
        assert!(ev.contains("\"kind\":\"ovsdb.commit\""));
        assert!(ev.contains("\"trace\":3"));
        assert!(ev.contains("\"rows\":1"));
        assert!(ev.contains("\\\"world\\\""));
        assert!(lines.next().is_none());
    }

    #[test]
    fn failure_signal_dumps_when_armed_within_budget() {
        let (_r, rec) = recorder();
        let dir = std::env::temp_dir().join(format!("nfr-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        rec.record_note(Plane::Stack, "failure.signal", 0, &[], "oracle: invariant");
        // Not armed: nothing is written.
        assert!(rec.failure_dump("oracle", "pre-arm").is_none());
        rec.arm(&dir);
        let path = rec
            .failure_dump("oracle", "invariant")
            .expect("dump written");
        assert!(path.exists());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("failure.signal"));
        assert!(text.contains("oracle: invariant"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn convergence_anchors_are_bounded_and_keep_the_first() {
        let tracker = ConvergenceTracker::default();
        tracker.begin(5, 1_000);
        tracker.begin(5, 2_000); // repeat keeps the first anchor
        assert_eq!(tracker.settle(5, 51_000), Some(50_000));
        assert_eq!(tracker.settle(5, 101_000), Some(100_000));
        // Unknown trace: no lag.
        assert_eq!(tracker.settle(99, 500), None);
        for t in 100..100 + ANCHOR_CAP as u64 {
            tracker.begin(t, 0);
        }
        assert_eq!(tracker.open(), ANCHOR_CAP);
        assert_eq!(tracker.begun(), 1 + ANCHOR_CAP as u64);
        assert_eq!(tracker.settle(5, 0), None, "evicted");
    }

    #[test]
    fn concurrent_recording_keeps_unique_sequences() {
        let (_r, rec) = recorder();
        let rec = std::sync::Arc::new(rec);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    rec.record(Plane::Control, "ddlog.apply", 1, &[]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 1600);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 1600, "sequence numbers must be unique");
    }
}
