//! Spans recorded from outside the program, around the calls into each
//! layer, kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One timed interval. `parent` indexes [`Trace::spans`]; spans of one
/// operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Record a span; returns its index for use as a parent.
    pub fn span(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (children are clipped to the
    /// parent and overlapping children are not counted twice).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Per span name, the per-operation self time (summed over the
    /// operation's spans of that name), restricted to operations that
    /// have a `root`-named span.
    pub fn self_time_by_name(&self, root: &str) -> BTreeMap<&'static str, Vec<f64>> {
        let selfs = self.self_times();
        let rooted: std::collections::BTreeSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == root)
            .map(|s| s.op)
            .collect();
        let mut per_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            // Only spans inside a rooted tree take part in the budget.
            if rooted.contains(&s.op) && (s.name == root || s.parent.is_some()) {
                *per_op.entry((s.name, s.op)).or_default() += own;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per_op {
            out.entry(name).or_default().push(ns as f64 / 1e3);
        }
        out
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Write the spans plus `extra` top-level fields as one JSON object.
    pub fn write_json(&self, path: &Path, extra: &[(&str, String)]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{")?;
        for (key, value) in extra {
            writeln!(out, "  \"{key}\": {value},")?;
        }
        writeln!(out, "  \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "    {{\"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "  ]")?;
        writeln!(out, "}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let mut t = Trace::default();
        let root = t.span("op", 1, None, 0, 100);
        // Two overlapping children cover 10..50 once, not twice.
        let a = t.span("a", 1, Some(root), 10, 40);
        t.span("b", 1, Some(root), 30, 50);
        // A grandchild comes out of `a`, not out of the root.
        t.span("a.inner", 1, Some(a), 15, 25);
        // A child running past its parent's end is clipped to it.
        t.span("late", 1, Some(root), 90, 130);
        let selfs = t.self_times();
        assert_eq!(selfs[root], 100 - 40 - 10);
        assert_eq!(selfs[a], 30 - 10);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 40);
    }

    #[test]
    fn parts_add_up_to_the_whole_when_children_stay_inside() {
        let mut t = Trace::default();
        for op in 0..3u64 {
            let base = op * 1000;
            let root = t.span("op", op, None, base, base + 500);
            t.span("x", op, Some(root), base + 10, base + 200);
            let y = t.span("y", op, Some(root), base + 200, base + 480);
            t.span("z", op, Some(y), base + 210, base + 300);
            t.span("z", op, Some(y), base + 300, base + 350);
            // An unrooted (shadow) span stays out of the budget.
            t.span("shadow", op + 100, None, base, base + 50);
        }
        let by_name = t.self_time_by_name("op");
        assert!(!by_name.contains_key("shadow"));
        let total: f64 = by_name.values().map(|v| v[0]).sum();
        assert!((total - 0.5).abs() < 1e-9, "{by_name:?}");
        assert_eq!(by_name["z"], vec![0.14; 3]);
        assert_eq!(t.durations_us("y").len(), 3);
    }
}
