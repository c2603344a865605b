//! The exposition of a full stack run, pinned in a process of its own so
//! the process-wide registry holds only what the run registered:
//!
//! - **names**: every series the run showed before metrics were folded
//!   from events (`metric_names/parent_run.tsv`) is still shown with the
//!   same type and help, and every family shown is one that code could
//!   register (`metric_names/registrable.tsv`, listed from its sources).
//!   The per-operator `ddlog_op_*` families are pinned as `family{*}`:
//!   their `op` labels follow the planner's numbering. A change that
//!   renames, retypes or drops a series on purpose edits its line there;
//! - **the fold invariant**: with the recorder on and no ring wrapped,
//!   every series the catalogue folds equals its fold recomputed from
//!   the recorder's snapshot;
//! - **recorder off**: folded series still move, and the recorder's own
//!   event counter does not.

use std::collections::{BTreeMap, BTreeSet};

use telemetry::catalogue::KINDS;
use telemetry::recorder::{PLANES, RING_CAP};

#[path = "metric_names/run.rs"]
mod run;

const EVENTS_TOTAL: &str = "nerpa_flight_events_total";

/// Family → `(type, help)` as a text exposition declares them, without
/// the `_overflow_total` companion every histogram family gets.
fn families(text: &str) -> BTreeMap<String, (String, String)> {
    let mut help = BTreeMap::new();
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, h) = rest.split_once(' ').unwrap();
            help.insert(name.to_string(), h.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest.split_once(' ').unwrap();
            out.insert(name.to_string(), (ty.to_string(), help[name].clone()));
        }
    }
    let companions: Vec<String> = out
        .iter()
        .filter(|(_, (ty, _))| ty == "histogram")
        .map(|(name, _)| format!("{name}_overflow_total"))
        .collect();
    for c in companions {
        out.remove(&c);
    }
    out
}

fn family_of(series: &str) -> &str {
    series.split('{').next().unwrap()
}

/// `name<TAB>type<TAB>help` lines, keyed by name.
fn tsv(text: &str) -> BTreeMap<String, (String, String)> {
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut it = l.splitn(3, '\t');
            let (name, ty, help) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
            (name.to_string(), (ty.to_string(), help.to_string()))
        })
        .collect()
}

/// The value of one sample line (`name{labels} value`) of `text`.
fn sample(text: &str, series: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let (name, v) = l.rsplit_once(' ')?;
        (name == series).then(|| v.parse().unwrap())
    })
}

fn check_names() {
    let registry = &telemetry::global().registry;
    let fams = families(&registry.render_text());
    let shown: BTreeMap<String, (String, String)> = registry
        .series_names()
        .into_iter()
        .map(|s| {
            let decl = fams[family_of(&s)].clone();
            (s, decl)
        })
        .collect();

    let parent_run = tsv(include_str!("metric_names/parent_run.tsv"));
    assert!(!parent_run.is_empty());
    for (series, decl) in &parent_run {
        // `family{*}` pins a family whose labels are the planner's
        // operator numbering: the family, not each series.
        let got = match series.strip_suffix("{*}") {
            Some(family) => fams.get(family),
            None => shown.get(series),
        };
        assert_eq!(got, Some(decl), "{series} changed or vanished");
    }
    let registrable = tsv(include_str!("metric_names/registrable.tsv"));
    for (family, decl) in &fams {
        assert_eq!(
            registrable.get(family),
            Some(decl),
            "{family} is not a family the code could register, as listed"
        );
    }
}

/// Every folded series (labelled ones included) → `(observations, sum)`
/// recomputed from the buffered events.
fn folds_of_snapshot() -> BTreeMap<String, (u64, u64)> {
    let tel = telemetry::global();
    let recorder = &tel.recorder;
    for plane in PLANES {
        assert!(
            recorder.recorded(plane) <= RING_CAP as u64,
            "the {} ring wrapped",
            plane.as_str()
        );
    }
    // A fold's unlabelled series exists from the start; a per-label
    // family's series from its label's start (a shard's, from
    // `ShardRuntime::start`): each at 0 until an event.
    let per_label: BTreeSet<&str> = KINDS
        .iter()
        .flat_map(|k| k.folds)
        .filter(|f| !f.total)
        .map(|f| f.series)
        .collect();
    let mut folds: BTreeMap<String, (u64, u64)> = KINDS
        .iter()
        .flat_map(|k| k.folds)
        .filter(|f| f.total)
        .map(|f| f.series.to_string())
        .chain(
            tel.registry
                .series_names()
                .into_iter()
                .filter(|s| per_label.contains(family_of(s))),
        )
        .map(|s| (s, (0, 0)))
        .collect();
    for e in recorder.snapshot() {
        let kind = KINDS
            .iter()
            .find(|k| k.name == e.kind)
            .unwrap_or_else(|| panic!("{} is not a catalogued kind", e.kind));
        assert_eq!(kind.plane, e.plane, "{}", e.kind);
        for fold in kind.folds {
            let Some(v) = fold.field.map_or(Some(1), |f| e.field(f)) else {
                continue;
            };
            let mut add = |series: String| {
                let acc = folds.entry(series).or_default();
                acc.0 += 1;
                acc.1 += v;
            };
            if fold.total {
                add(fold.series.to_string());
            }
            if let Some((by, label)) = fold.by.and_then(|by| Some((by, e.field(by)?))) {
                add(format!("{}{{{by}=\"{label}\"}}", fold.series));
            }
        }
    }
    folds
}

fn check_folds() {
    let registry = &telemetry::global().registry;
    let folds = folds_of_snapshot();
    let text = registry.render_text();
    let histograms: BTreeSet<&str> = KINDS
        .iter()
        .flat_map(|k| k.folds)
        .filter(|f| f.bounds.is_some())
        .map(|f| f.series)
        .collect();
    for (series, (count, sum)) in &folds {
        let family = family_of(series);
        if histograms.contains(family) {
            let labels = &series[family.len()..];
            assert_eq!(registry.value(series), Some(*count), "{series} count");
            assert_eq!(
                sample(&text, &format!("{family}_sum{labels}")),
                Some(*sum),
                "{series} sum"
            );
        } else {
            assert_eq!(registry.value(series), Some(*sum), "{series}");
        }
    }
    let families: BTreeSet<&str> = KINDS
        .iter()
        .flat_map(|k| k.folds)
        .map(|f| f.series)
        .collect();
    for series in registry.series_names() {
        if families.contains(family_of(&series)) {
            assert!(folds.contains_key(&series), "{series} is not a fold");
        }
    }
    for moved in [
        "ovsdb_wal_records_appended_total",
        "ovsdb_wal_replay_duration_us",
        "ovsdb_monitor_notifications_total",
        "ovsdb_monitor_evictions_total",
        "ddlog_output_changes_total",
        "p4_write_batches_total",
        "p4_write_errors_total",
        "p4_digests_total",
        "resync_backoff_delay_us",
        "resync_connects_total",
        "nerpa_convergence_lag_ns{shard=\"1\"}",
        "nerpa_shard_shed_inputs_total{shard=\"0\"}",
        "nerpa_shard_watchdog_restarts_total{shard=\"0\"}",
        "nerpa_shard_write_errors_total{shard=\"0\"}",
        "nerpa_shard_commit_errors_total{shard=\"0\"}",
        "ovsdb_connections_total",
        "ovsdb_monitor_disconnects_total",
        "ovsdb_wal_snapshot_compactions_total",
        "controller_resyncs_total",
        "controller_reconciles_total",
    ] {
        assert!(folds[moved].0 > 0, "the run never moved {moved}");
    }
}

fn check_recorder_off() {
    let tel = telemetry::global();
    let folded = || -> BTreeMap<String, u64> {
        folds_of_snapshot()
            .into_keys()
            .map(|s| {
                let v = tel.registry.value(&s).unwrap();
                (s, v)
            })
            .collect()
    };
    let before = folded();
    let events = tel.registry.value(EVENTS_TOTAL);
    tel.recorder.set_enabled(false);
    run::run_stack("recorder-off");
    tel.recorder.set_enabled(true);
    assert_eq!(tel.registry.value(EVENTS_TOTAL), events);
    for (series, v) in &before {
        if *v > 0 {
            let after = tel.registry.value(series).unwrap();
            assert!(after > *v, "{series} did not move with the recorder off");
        }
    }
}

#[test]
fn series_keep_their_names_and_are_folds_of_the_events() {
    run::run_stack("recorder-on");
    check_names();
    check_folds();
    check_recorder_off();
}
