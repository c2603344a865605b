//! Metric primitives and the named registry.
//!
//! The primitives are lock-free atomics cheap enough for hot paths: a
//! saturating [`Counter`], a [`Gauge`], and a fixed-bucket [`Histogram`]
//! whose memory is bounded no matter how long the process runs. The
//! [`Registry`] names them, groups label variants into families, and
//! renders two exposition formats: Prometheus-style text and JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default latency bucket upper bounds, in microseconds, with an
/// implicit overflow bucket (`+Inf`) on top.
pub const LATENCY_BOUNDS_US: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
];

/// Default size bucket upper bounds (row counts, batch sizes).
pub const SIZE_BOUNDS: [u64; 10] = [1, 2, 5, 10, 20, 50, 100, 250, 1_000, 10_000];

// ----------------------------------------------------------- primitives

/// A monotonically-increasing counter. Additions saturate at `u64::MAX`
/// instead of wrapping, so a long-lived process can never report a
/// counter that went backwards.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) `n`.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger; never lowers it. For
    /// high-water marks (peak queue depth) that overload assertions can
    /// read back after a flood.
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive bucket upper bounds; an implicit overflow bucket
    /// (`+Inf`) follows the last bound.
    bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) observation counts;
    /// `bounds.len() + 1` entries.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram over `u64` observations (latencies in
/// microseconds, batch sizes, delta sizes). Bounded memory: the bucket
/// array never grows.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A fresh, unregistered histogram with the given inclusive bucket
    /// upper bounds (must be sorted ascending).
    pub fn new(bounds: &[u64]) -> Histogram {
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        let h = &self.0;
        let idx = h
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(h.bounds.len());
        h.buckets[idx].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        let _ = h
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
    }

    /// Record a [`std::time::Duration`] in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, if anything was recorded.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    /// The inclusive bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.0.bounds
    }

    /// Per-bucket (non-cumulative) counts; index `i` covers
    /// `(bounds[i-1], bounds[i]]`, with a trailing overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Observations beyond the last bucket bound — the saturation
    /// count. A non-zero value means the bounds are too tight for the
    /// workload and the tail of the distribution is unresolved.
    pub fn overflow(&self) -> u64 {
        self.0.buckets[self.0.bounds.len()].load(Ordering::Relaxed)
    }
}

// ------------------------------------------------------------- registry

/// What kind of metric a family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
}

impl MetricKind {
    fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    help: String,
    kind: MetricKind,
    /// Label string (`""` or `{k="v",...}`) → series.
    series: BTreeMap<String, Series>,
}

/// A named collection of metric families, each with zero or more
/// labeled series. Registration is get-or-create: two call sites naming
/// the same series share the same underlying atomic.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Format a label set the way the exposition format expects:
/// `{key="value",...}`, or `""` for no labels.
pub fn format_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={:?}", v)).collect();
    format!("{{{}}}", body.join(","))
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_create(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
        kind: MetricKind,
    ) -> Series {
        let mut fams = self.families.lock().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            fam.kind == kind,
            "metric `{name}` registered as {} but requested as {}",
            fam.kind.as_str(),
            kind.as_str()
        );
        fam.series
            .entry(format_labels(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Get or create an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Get or create a labeled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_create(
            name,
            help,
            labels,
            || Series::Counter(Counter::new()),
            MetricKind::Counter,
        ) {
            Series::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Get or create an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Get or create a labeled gauge series.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_create(
            name,
            help,
            labels,
            || Series::Gauge(Gauge::new()),
            MetricKind::Gauge,
        ) {
            Series::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Get or create an unlabeled histogram with the given bucket bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        self.histogram_with(name, help, &[], bounds)
    }

    /// Get or create a labeled histogram series with the given bucket
    /// bounds (e.g. per-shard convergence lag).
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Histogram {
        match self.get_or_create(
            name,
            help,
            labels,
            || Series::Histogram(Histogram::new(bounds)),
            MetricKind::Histogram,
        ) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Every registered series name (family name + label set), sorted.
    pub fn series_names(&self) -> Vec<String> {
        let fams = self.families.lock().unwrap();
        let mut out = Vec::new();
        for (name, fam) in fams.iter() {
            for labels in fam.series.keys() {
                out.push(format!("{name}{labels}"));
            }
        }
        out
    }

    /// Read a counter or gauge series by full name (family + labels);
    /// histograms report their observation count.
    pub fn value(&self, series_name: &str) -> Option<u64> {
        let fams = self.families.lock().unwrap();
        for (name, fam) in fams.iter() {
            for (labels, series) in fam.series.iter() {
                if format!("{name}{labels}") == series_name {
                    return Some(match series {
                        Series::Counter(c) => c.get(),
                        Series::Gauge(g) => g.get().max(0) as u64,
                        Series::Histogram(h) => h.count(),
                    });
                }
            }
        }
        None
    }

    /// Render the Prometheus-style text exposition format. Families and
    /// series are emitted in sorted order, so output is deterministic
    /// for a given registry state.
    pub fn render_text(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            out.push_str(&format!("# HELP {name} {}\n", fam.help));
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind.as_str()));
            for (labels, series) in fam.series.iter() {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", g.get()));
                    }
                    Series::Histogram(h) => {
                        render_histogram_text(&mut out, name, labels, h);
                    }
                }
            }
            // A histogram's saturation is invisible in the bucket lines
            // (+Inf always equals the count), so each histogram family
            // gets a companion counter of out-of-range observations.
            if fam.kind == MetricKind::Histogram {
                out.push_str(&format!(
                    "# HELP {name}_overflow_total Observations of {name} beyond its last bucket bound\n"
                ));
                out.push_str(&format!("# TYPE {name}_overflow_total counter\n"));
                for (labels, series) in fam.series.iter() {
                    if let Series::Histogram(h) = series {
                        out.push_str(&format!("{name}_overflow_total{labels} {}\n", h.overflow()));
                    }
                }
            }
        }
        out
    }

    /// Render the whole registry as a JSON object (deterministic order).
    pub fn render_json(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut out = String::from("{");
        let mut first_fam = true;
        for (name, fam) in fams.iter() {
            for (labels, series) in fam.series.iter() {
                if !first_fam {
                    out.push(',');
                }
                first_fam = false;
                out.push_str(&json_string(&format!("{name}{labels}")));
                out.push(':');
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!("{{\"type\":\"counter\",\"value\":{}}}", c.get()))
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!("{{\"type\":\"gauge\",\"value\":{}}}", g.get()))
                    }
                    Series::Histogram(h) => {
                        out.push_str(&format!(
                            "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"overflow\":{},\"buckets\":[",
                            h.count(),
                            h.sum(),
                            h.overflow()
                        ));
                        let counts = h.bucket_counts();
                        let mut cumulative = 0u64;
                        for (i, c) in counts.iter().enumerate() {
                            cumulative += c;
                            if i > 0 {
                                out.push(',');
                            }
                            let le = h
                                .bounds()
                                .get(i)
                                .map(|b| b.to_string())
                                .unwrap_or_else(|| "\"+Inf\"".to_string());
                            out.push_str(&format!("[{le},{cumulative}]"));
                        }
                        out.push_str("]}");
                    }
                }
            }
        }
        out.push('}');
        out
    }
}

fn render_histogram_text(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    // Buckets are cumulative in the exposition format; `le` merges into
    // an existing label set.
    let merge_le = |le: &str| -> String {
        if labels.is_empty() {
            format!("{{le=\"{le}\"}}")
        } else {
            format!("{}{},le=\"{le}\"{}", "{", &labels[1..labels.len() - 1], "}")
        }
    };
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cumulative += c;
        let le = h
            .bounds()
            .get(i)
            .map(|b| b.to_string())
            .unwrap_or_else(|| "+Inf".to_string());
        out.push_str(&format!("{name}_bucket{} {cumulative}\n", merge_le(&le)));
    }
    // The count is the buckets' total as read above, not the count
    // atomic: an observation recorded while this renders would make
    // `+Inf` and `_count` disagree.
    out.push_str(&format!("{name}_sum{labels} {}\n", h.sum()));
    out.push_str(&format!("{name}_count{labels} {cumulative}\n"));
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ----------------------------------------------------------- validation

/// Validate a Prometheus-style text exposition: every sample line must
/// be `name{labels} value`, every family must carry `# TYPE`, histogram
/// families must expose `_sum`, `_count`, and a `+Inf` bucket equal to
/// the count. Returns the first problem found.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    // family -> (saw_sum, saw_count, count_value, inf_value)
    let mut hist: HashMap<String, (bool, bool, u64, Option<u64>)> = HashMap::new();

    let name_ok = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !s.starts_with(|c: char| c.is_ascii_digit())
    };

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                return Err(format!("line {}: malformed TYPE comment", lineno + 1));
            };
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {}: unknown metric type {kind:?}", lineno + 1));
            }
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // A sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value {value:?}", lineno + 1))?;
        let name = series.split('{').next().unwrap_or(series);
        if !name_ok(name) {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!("line {}: unterminated label set", lineno + 1));
        }
        // Find the family this sample belongs to.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                let fam = name.strip_suffix(suf)?;
                (types.get(fam).map(String::as_str) == Some("histogram")).then_some(fam)
            })
            .unwrap_or(name);
        if !types.contains_key(family) {
            return Err(format!(
                "line {}: series {name:?} has no preceding TYPE",
                lineno + 1
            ));
        }
        if types[family] == "histogram" {
            let entry = hist.entry(family.to_string()).or_default();
            if name.ends_with("_sum") {
                entry.0 = true;
            } else if name.ends_with("_count") {
                entry.1 = true;
                entry.2 = value as u64;
            } else if name.ends_with("_bucket") {
                if !series.contains("le=") {
                    return Err(format!("line {}: bucket without le label", lineno + 1));
                }
                if series.contains("le=\"+Inf\"") {
                    entry.3 = Some(value as u64);
                }
            } else {
                return Err(format!(
                    "line {}: histogram family {family:?} has bare sample {name:?}",
                    lineno + 1
                ));
            }
        }
    }
    for (fam, (saw_sum, saw_count, count, inf)) in hist {
        if !saw_sum || !saw_count {
            return Err(format!("histogram {fam:?} is missing _sum or _count"));
        }
        match inf {
            None => return Err(format!("histogram {fam:?} has no +Inf bucket")),
            Some(v) if v != count => {
                return Err(format!(
                    "histogram {fam:?}: +Inf bucket {v} != count {count}"
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}
