//! Reading the black box: parsing, merging, and rendering of
//! flight-recorder `.nfr` dumps (see `telemetry::recorder`).
//!
//! A `.nfr` dump is NDJSON: one header line, then one line per
//! recorded event, sequence-ordered. This module loads one or more
//! dumps into a single causally ordered [`Timeline`] — within one
//! process the recorder's monotonic sequence number is the causal
//! order; across processes events interleave by absolute time
//! (`start_unix_ms` anchor plus the event's relative timestamp).
//!
//! The same span derivation the live recorder serves on `/traces`
//! ([`telemetry::SpanTree::derive`]) reads a timeline, so a trace that
//! crossed processes is the tree of their merged dumps.
//!
//! Dumps are untrusted input: every malformed dump is an `Err` naming
//! the offending line, never a panic.

use std::path::Path;

use serde_json::Value as Json;
use telemetry::{EventView, SpanTree};

/// The header line of one `.nfr` dump.
#[derive(Debug, Clone)]
pub struct DumpHeader {
    /// The dump's source file name (for provenance in merged output).
    pub source: String,
    /// The `.nfr` format version.
    pub version: u64,
    /// Why the dump was written ("oracle-failure: ...", "chaos run
    /// end", "health: ...").
    pub reason: String,
    /// Wall-clock anchor: unix milliseconds when the recorder started.
    pub start_unix_ms: u64,
    /// Events in the dump.
    pub events: u64,
}

/// One event parsed back out of a dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Index into [`Timeline::dumps`] of the dump this event came from.
    pub dump: usize,
    /// Process-wide monotonic sequence number (causal order within the
    /// source process).
    pub seq: u64,
    /// Nanoseconds since the source recorder started.
    pub ts_ns: u64,
    /// The recording plane ("management", "control", "data", "stack",
    /// "chaos").
    pub plane: String,
    /// Event kind ("ovsdb.commit", "ddlog.apply", "shard.write", ...).
    pub kind: String,
    /// Causal trace id; 0 = untraced.
    pub trace: u64,
    /// Named numeric payload fields, sorted by name.
    pub fields: Vec<(String, u64)>,
    /// Optional free-form detail.
    pub note: Option<String>,
}

impl FlightEvent {
    /// Absolute wall-clock nanoseconds (for cross-process interleaving).
    fn abs_ns(&self, headers: &[DumpHeader]) -> u128 {
        headers[self.dump].start_unix_ms as u128 * 1_000_000 + self.ts_ns as u128
    }

    /// One rendered timeline line.
    pub fn render_line(&self, multi_dump: bool) -> String {
        let ms = self.ts_ns as f64 / 1e6;
        let mut out = String::new();
        if multi_dump {
            out.push_str(&format!("[{}] ", self.dump));
        }
        out.push_str(&format!(
            "{:>6}  +{ms:>10.3}ms  {:<10}  {:<20}",
            self.seq, self.plane, self.kind
        ));
        if self.trace != 0 {
            out.push_str(&format!("  trace={:x}", self.trace));
        }
        for (k, v) in &self.fields {
            out.push_str(&format!("  {k}={v}"));
        }
        if let Some(note) = &self.note {
            out.push_str(&format!("  -- {note}"));
        }
        out
    }

    fn to_json(&self) -> Json {
        let fields: serde_json::Map<String, Json> = self
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(*v)))
            .collect();
        let mut obj = serde_json::Map::new();
        obj.insert("dump".into(), Json::from(self.dump));
        obj.insert("seq".into(), Json::from(self.seq));
        obj.insert("ts_ns".into(), Json::from(self.ts_ns));
        obj.insert("plane".into(), Json::String(self.plane.clone()));
        obj.insert("kind".into(), Json::String(self.kind.clone()));
        obj.insert("trace".into(), Json::from(self.trace));
        obj.insert("fields".into(), Json::Object(fields));
        if let Some(note) = &self.note {
            obj.insert("note".into(), Json::String(note.clone()));
        }
        Json::Object(obj)
    }
}

/// One or more dumps merged into a causally ordered event stream.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// The source dump headers, in load order.
    pub dumps: Vec<DumpHeader>,
    /// All events, causally ordered.
    pub events: Vec<FlightEvent>,
}

/// A JSON integer in `u64` range. Floats are refused even when whole:
/// the recorder writes integers, and a float past 2^53 (or 2^64) would
/// silently read back as a different value.
fn as_u64(v: &Json) -> Option<u64> {
    match v {
        Json::Number(n) if !n.is_f64() => n.as_u64(),
        _ => None,
    }
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(as_u64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn get_str(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn parse_event(dump: usize, line: &str) -> Result<FlightEvent, String> {
    let ev: Json = serde_json::from_str(line).map_err(|e| format!("bad event: {e}"))?;
    let fields = match ev.get("fields") {
        Some(Json::Object(map)) => map
            .iter()
            .map(|(k, v)| {
                as_u64(v)
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("non-numeric field {k:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => Vec::new(),
    };
    Ok(FlightEvent {
        dump,
        seq: get_u64(&ev, "seq")?,
        ts_ns: get_u64(&ev, "ts_ns")?,
        plane: get_str(&ev, "plane")?,
        kind: get_str(&ev, "kind")?,
        trace: get_u64(&ev, "trace")?,
        fields,
        note: ev.get("note").and_then(Json::as_str).map(str::to_string),
    })
}

fn parse_header(source: &str, line: &str) -> Result<DumpHeader, String> {
    let header: Json = serde_json::from_str(line).map_err(|e| format!("bad header: {e}"))?;
    let version = get_u64(&header, "nfr")?;
    if version != telemetry::NFR_VERSION as u64 {
        return Err(format!(
            "unsupported .nfr version {version} (this tool reads version {})",
            telemetry::NFR_VERSION
        ));
    }
    Ok(DumpHeader {
        source: source.to_string(),
        version,
        reason: get_str(&header, "reason")?,
        start_unix_ms: get_u64(&header, "start_unix_ms")?,
        events: get_u64(&header, "events")?,
    })
}

fn parse_dump(
    dump: usize,
    source: &str,
    text: &str,
) -> Result<(DumpHeader, Vec<FlightEvent>), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line))
        .filter(|(_, line)| !line.trim().is_empty());
    let (n, header_line) = lines.next().ok_or("line 1: empty dump")?;
    let head = parse_header(source, header_line).map_err(|e| format!("line {n}: {e}"))?;
    let mut events = Vec::new();
    for (n, line) in lines {
        events.push(parse_event(dump, line).map_err(|e| format!("line {n}: {e}"))?);
    }
    if events.len() as u64 != head.events {
        return Err(format!(
            "line {}: the header announces {} events, the dump holds {} (truncated?)",
            text.lines().count() + 1,
            head.events,
            events.len()
        ));
    }
    Ok((head, events))
}

impl Timeline {
    /// Load and merge one or more `.nfr` dump files.
    pub fn load(paths: &[impl AsRef<Path>]) -> Result<Timeline, String> {
        let mut timeline = Timeline::default();
        for path in paths {
            let path = path.as_ref();
            let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let text = std::str::from_utf8(&bytes).map_err(|e| {
                let line = bytes[..e.valid_up_to()]
                    .iter()
                    .filter(|b| **b == b'\n')
                    .count()
                    + 1;
                format!("{}: line {line}: not UTF-8", path.display())
            })?;
            timeline
                .push_dump(&path.display().to_string(), text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        timeline.sort();
        Ok(timeline)
    }

    /// Parse one dump's text and append it (callers should [`sort`]
    /// once all dumps are in).
    ///
    /// [`sort`]: Timeline::sort
    pub fn push_dump(&mut self, source: &str, text: &str) -> Result<(), String> {
        let (head, events) = parse_dump(self.dumps.len(), source, text)?;
        self.dumps.push(head);
        self.events.extend(events);
        Ok(())
    }

    /// Causally order the merged stream: within one dump the sequence
    /// number is the causal order; absolute wall-clock time interleaves
    /// dumps. A recorder takes an event's number and its clock reading
    /// one after the other, so a thread preempted between the two stamps
    /// its event later than events numbered after it: each event sorts
    /// at the latest time its dump reached up to its number.
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| (e.dump, e.seq));
        let mut reached = (usize::MAX, 0);
        let mut keyed: Vec<_> = std::mem::take(&mut self.events)
            .into_iter()
            .map(|e| {
                let floor = if reached.0 == e.dump { reached.1 } else { 0 };
                reached = (e.dump, floor.max(e.abs_ns(&self.dumps)));
                ((reached.1, e.dump, e.seq), e)
            })
            .collect();
        keyed.sort_by_key(|(key, _)| *key);
        self.events = keyed.into_iter().map(|(_, e)| e).collect();
    }

    /// The timeline restricted to one trace id (header set unchanged).
    pub fn filter_trace(&self, trace: u64) -> Timeline {
        Timeline {
            dumps: self.dumps.clone(),
            events: self
                .events
                .iter()
                .filter(|e| e.trace == trace)
                .cloned()
                .collect(),
        }
    }

    /// The span tree of one trace, derived from its events in every
    /// loaded dump on their shared wall clock.
    pub fn span_tree(&self, trace: u64) -> Option<SpanTree> {
        let views = self
            .events
            .iter()
            .filter(|e| e.trace == trace)
            .map(|e| EventView {
                at_ns: e.abs_ns(&self.dumps).min(u64::MAX as u128) as u64,
                kind: &e.kind,
                fields: e.fields.iter().map(|(k, v)| (k.as_str(), *v)).collect(),
            });
        SpanTree::derive(trace, views)
    }

    /// The plane names crossed by this timeline, in event order
    /// (deduplicated to first occurrence).
    pub fn planes_crossed(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for e in &self.events {
            if !out.contains(&e.plane) {
                out.push(e.plane.clone());
            }
        }
        out
    }

    /// Human-readable timeline: dump provenance, then one line per
    /// event.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let multi = self.dumps.len() > 1;
        for (i, d) in self.dumps.iter().enumerate() {
            out.push_str(&format!(
                "dump [{i}] {} — {} events, reason: {}\n",
                d.source, d.events, d.reason
            ));
        }
        out.push_str(&format!("{} events:\n", self.events.len()));
        for e in &self.events {
            out.push_str(&e.render_line(multi));
            out.push('\n');
        }
        out
    }

    /// The machine-readable form: `{"dumps":[...],"events":[...]}`.
    pub fn render_json(&self) -> String {
        let dumps: Vec<Json> = self
            .dumps
            .iter()
            .map(|d| {
                serde_json::json!({
                    "source": d.source,
                    "version": d.version,
                    "reason": d.reason,
                    "start_unix_ms": d.start_unix_ms,
                    "events": d.events,
                })
            })
            .collect();
        let events: Vec<Json> = self.events.iter().map(|e| e.to_json()).collect();
        serde_json::json!({ "dumps": dumps, "events": events }).to_string()
    }

    /// Per-(plane, kind) event counts.
    fn kind_counts(&self) -> std::collections::BTreeMap<(String, String), u64> {
        let mut counts = std::collections::BTreeMap::new();
        for e in &self.events {
            *counts
                .entry((e.plane.clone(), e.kind.clone()))
                .or_insert(0u64) += 1;
        }
        counts
    }

    /// Compare against a healthy baseline dump: which event kinds
    /// appear only here (the anomalies — audit trips, write errors,
    /// faults), which only there, and how the shared counts shifted.
    pub fn diff(&self, healthy: &Timeline) -> String {
        let ours = self.kind_counts();
        let theirs = healthy.kind_counts();
        let mut out = String::new();
        for ((plane, kind), n) in &ours {
            match theirs.get(&(plane.clone(), kind.clone())) {
                None => out.push_str(&format!("+ {plane}/{kind}: {n} (absent in baseline)\n")),
                Some(m) if m != n => {
                    out.push_str(&format!("~ {plane}/{kind}: {n} here, {m} in baseline\n"))
                }
                Some(_) => {}
            }
        }
        for ((plane, kind), m) in &theirs {
            if !ours.contains_key(&(plane.clone(), kind.clone())) {
                out.push_str(&format!("- {plane}/{kind}: 0 here, {m} in baseline\n"));
            }
        }
        if out.is_empty() {
            out.push_str("no differences in event kinds or counts\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start_ms: u64, events: &[(u64, u64, &str, &str, u64)]) -> String {
        let mut out = format!(
            "{{\"nfr\":1,\"reason\":\"test\",\"start_unix_ms\":{start_ms},\"events\":{}}}\n",
            events.len()
        );
        for (seq, ts, plane, kind, trace) in events {
            out.push_str(&format!(
                "{{\"seq\":{seq},\"ts_ns\":{ts},\"plane\":\"{plane}\",\"kind\":\"{kind}\",\"trace\":{trace},\"fields\":{{\"n\":1}}}}\n"
            ));
        }
        out
    }

    #[test]
    fn parse_and_order_single_dump() {
        let text = sample(
            1000,
            &[
                (3, 30, "data", "p4.write", 7),
                (1, 10, "management", "ovsdb.commit", 7),
                (2, 20, "control", "ddlog.apply", 7),
            ],
        );
        let mut t = Timeline::default();
        t.push_dump("a.nfr", &text).unwrap();
        t.sort();
        let kinds: Vec<&str> = t.events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["ovsdb.commit", "ddlog.apply", "p4.write"]);
        assert_eq!(t.planes_crossed(), ["management", "control", "data"]);
    }

    #[test]
    fn merge_interleaves_by_wall_clock() {
        // Process B started 1ms after process A; its first event lands
        // between A's two events in absolute time.
        let a = sample(
            1000,
            &[
                (1, 100_000, "management", "ovsdb.commit", 1),
                (2, 3_000_000, "data", "p4.write", 1),
            ],
        );
        let b = sample(1001, &[(1, 500_000, "chaos", "chaos.fault", 0)]);
        let mut t = Timeline::default();
        t.push_dump("a.nfr", &a).unwrap();
        t.push_dump("b.nfr", &b).unwrap();
        t.sort();
        let kinds: Vec<&str> = t.events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["ovsdb.commit", "chaos.fault", "p4.write"]);
    }

    #[test]
    fn a_clock_read_behind_its_sequence_number_keeps_causal_order() {
        // Event 2's thread read the clock late: it stamps 30, event 3
        // stamps 20. Event 3 still follows event 2, and dump B's event
        // at 25 sorts before both.
        let a = sample(
            1000,
            &[
                (1, 10, "management", "ovsdb.commit", 1),
                (2, 30, "data", "p4.write", 1),
                (3, 20, "data", "p4.write", 2),
            ],
        );
        let b = sample(1000, &[(1, 25, "chaos", "chaos.fault", 0)]);
        let mut t = Timeline::default();
        t.push_dump("a.nfr", &a).unwrap();
        t.push_dump("b.nfr", &b).unwrap();
        t.sort();
        let order: Vec<(usize, u64)> = t.events.iter().map(|e| (e.dump, e.seq)).collect();
        assert_eq!(order, [(0, 1), (1, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn trace_filter_and_json_round_trip() {
        let text = sample(
            1000,
            &[
                (1, 10, "management", "ovsdb.commit", 7),
                (2, 20, "management", "ovsdb.commit", 9),
            ],
        );
        let mut t = Timeline::default();
        t.push_dump("a.nfr", &text).unwrap();
        t.sort();
        let only7 = t.filter_trace(7);
        assert_eq!(only7.events.len(), 1);
        assert_eq!(only7.events[0].trace, 7);

        let parsed: Json = serde_json::from_str(&t.render_json()).unwrap();
        assert_eq!(parsed["events"].as_array().unwrap().len(), 2);
        assert_eq!(parsed["dumps"][0]["reason"].as_str(), Some("test"));
    }

    #[test]
    fn diff_reports_new_and_shifted_kinds() {
        let healthy = sample(1000, &[(1, 10, "management", "ovsdb.commit", 1)]);
        let failing = sample(
            1000,
            &[
                (1, 10, "management", "ovsdb.commit", 1),
                (2, 20, "control", "ddlog.audit_trip", 1),
            ],
        );
        let mut h = Timeline::default();
        h.push_dump("h.nfr", &healthy).unwrap();
        let mut f = Timeline::default();
        f.push_dump("f.nfr", &failing).unwrap();
        let d = f.diff(&h);
        assert!(d.contains("+ control/ddlog.audit_trip"), "{d}");
        assert!(!d.contains("ovsdb.commit"), "{d}");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = "{\"nfr\":99,\"reason\":\"x\",\"start_unix_ms\":0,\"events\":0}\n";
        let mut t = Timeline::default();
        let err = t.push_dump("a.nfr", text).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }
}
