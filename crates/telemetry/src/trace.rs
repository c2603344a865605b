//! Causal trace spans, derived from flight-recorder events: follow one
//! configuration change across the management, control, and data
//! planes.
//!
//! A trace id is minted when a management-plane transaction commits
//! (or a digest arrives) and stamped on every event the change causes.
//! A [`SpanTree`] is never recorded: [`SpanTree::derive`] builds it on
//! demand from the events carrying its id — `ovsdb.commit`
//! (`commit_ns`), `ddlog.apply` (`wall_ns`) and one
//! `convergence.settled` per switch the change settles (`write_ns`,
//! shown as a `p4.write` span). The live recorder and `.nfr` dumps feed
//! the same derivation, so a trace that crossed processes is the tree
//! of their merged dumps.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::catalogue::{Kind, CONVERGENCE_SETTLED, DDLOG_APPLY, OVSDB_COMMIT};
use crate::metrics::json_string;

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Mint a process-unique trace id (never 0, so 0 can mean "untraced").
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// The events a span tree is made of: `(event kind, span name, the
/// field holding the stage's duration)`. A span's plane is its kind's.
const STAGES: [(&Kind, &str, &str); 3] = [
    (&OVSDB_COMMIT, "ovsdb.commit", "commit_ns"),
    (&DDLOG_APPLY, "ddlog.apply", "wall_ns"),
    (&CONVERGENCE_SETTLED, "p4.write", "write_ns"),
];

/// Whether events of `kind` become spans.
pub fn is_stage(kind: &str) -> bool {
    STAGES.iter().any(|s| s.0.name == kind)
}

/// One event as span derivation reads it, borrowed from the live
/// recorder or from a parsed dump.
pub struct EventView<'a> {
    /// When the event was recorded (the end of its stage), in
    /// nanoseconds on a clock shared by every event of one derivation.
    pub at_ns: u64,
    /// The event kind.
    pub kind: &'a str,
    /// The event's named numeric fields.
    pub fields: Vec<(&'a str, u64)>,
}

/// One timed operation within a trace, possibly with children.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Operation name (`ovsdb.commit`, `ddlog.apply`, `p4.write`).
    pub name: &'static str,
    /// Which plane did the work: `management`, `control`, `data`, or
    /// `stack` for the root.
    pub plane: &'static str,
    /// Start offset from the trace root, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The event's other fields (delta sizes, switch ids, lag), sorted
    /// by name.
    pub attrs: Vec<(String, u64)>,
    /// Child spans.
    pub children: Vec<Span>,
}

impl Span {
    fn to_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"name\":{},\"plane\":{},\"start_ns\":{},\"dur_ns\":{},\"attrs\":{{",
            json_string(self.name),
            json_string(self.plane),
            self.start_ns,
            self.dur_ns
        ));
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_string(k)));
        }
        out.push_str("},\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.to_json(out);
        }
        out.push_str("]}");
    }
}

/// A complete trace: the id plus the root span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// The trace id threaded across the planes.
    pub trace: u64,
    /// The root span (its children are the per-plane stages).
    pub root: Span,
}

impl SpanTree {
    /// Build the tree of `trace` from its events, in any order: one
    /// child per stage event, ending where the event was recorded and
    /// lasting its duration field, under a `stack.change` root spanning
    /// them all. `None` when no event is a stage.
    pub fn derive<'a>(
        trace: u64,
        events: impl IntoIterator<Item = EventView<'a>>,
    ) -> Option<SpanTree> {
        let mut stages: Vec<(u64, Span)> = Vec::new();
        let mut end = 0;
        for ev in events {
            let Some(&(stage, name, dur_key)) = STAGES.iter().find(|s| s.0.name == ev.kind) else {
                continue;
            };
            let mut dur_ns = 0;
            let mut attrs = Vec::with_capacity(ev.fields.len());
            for (k, v) in ev.fields {
                if k == dur_key {
                    dur_ns = v;
                } else {
                    attrs.push((k.to_string(), v));
                }
            }
            attrs.sort();
            end = end.max(ev.at_ns);
            let span = Span {
                name,
                plane: stage.plane.as_str(),
                start_ns: 0,
                dur_ns: dur_ns.max(1),
                attrs,
                children: Vec::new(),
            };
            stages.push((ev.at_ns.saturating_sub(dur_ns), span));
        }
        let origin = stages.iter().map(|(start, _)| *start).min()?;
        stages.sort_by_key(|(start, _)| *start);
        let children = stages
            .into_iter()
            .map(|(start, span)| Span {
                start_ns: start - origin,
                ..span
            })
            .collect();
        Some(SpanTree {
            trace,
            root: Span {
                name: "stack.change",
                plane: "stack",
                start_ns: 0,
                dur_ns: (end - origin).max(1),
                attrs: Vec::new(),
                children,
            },
        })
    }

    /// Total time attributed to `plane` across the whole tree, in
    /// nanoseconds.
    pub fn plane_duration_ns(&self, plane: &str) -> u64 {
        fn walk(s: &Span, plane: &str) -> u64 {
            let own = if s.plane == plane { s.dur_ns } else { 0 };
            own + s.children.iter().map(|c| walk(c, plane)).sum::<u64>()
        }
        walk(&self.root, plane)
    }

    /// Find the first span (depth-first) whose name matches.
    pub fn find_span(&self, name: &str) -> Option<&Span> {
        fn walk<'a>(s: &'a Span, name: &str) -> Option<&'a Span> {
            if s.name == name {
                return Some(s);
            }
            s.children.iter().find_map(|c| walk(c, name))
        }
        walk(&self.root, name)
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"trace\":{},\"root\":", self.trace);
        self.root.to_json(&mut out);
        out.push('}');
        out
    }

    /// Render as an indented human-readable tree (for failure reports).
    pub fn render_text(&self) -> String {
        fn walk(s: &Span, depth: usize, out: &mut String) {
            let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(
                "{}{} [{}] {:.3}ms {}\n",
                "  ".repeat(depth),
                s.name,
                s.plane,
                s.dur_ns as f64 / 1e6,
                attrs.join(" ")
            ));
            for c in &s.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = format!("trace {}:\n", self.trace);
        walk(&self.root, 1, &mut out);
        out
    }
}

/// Render trees as the `/traces` JSON array.
pub fn render_json(trees: &[SpanTree]) -> String {
    let parts: Vec<String> = trees.iter().map(SpanTree::to_json).collect();
    format!("[{}]", parts.join(","))
}
