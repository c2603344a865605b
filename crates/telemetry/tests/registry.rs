//! Registry semantics: bucket boundaries, counter saturation,
//! concurrent access, and exposition-format stability (golden file).

use std::sync::Arc;

use telemetry::{validate_exposition, Counter, Histogram, Registry, LATENCY_BOUNDS_US};

#[test]
fn histogram_bucket_boundaries_are_inclusive() {
    let h = Histogram::new(&[10, 100, 1_000]);
    // On the boundary → that bucket; one past → the next.
    h.record(10);
    h.record(11);
    h.record(100);
    h.record(101);
    h.record(1_000);
    h.record(1_001); // overflow bucket
    assert_eq!(h.bucket_counts(), vec![1, 2, 2, 1]);
    assert_eq!(h.count(), 6);
    assert_eq!(h.sum(), 10 + 11 + 100 + 101 + 1_000 + 1_001);
}

#[test]
fn histogram_zero_lands_in_first_bucket() {
    let h = Histogram::new(&LATENCY_BOUNDS_US);
    h.record(0);
    assert_eq!(h.bucket_counts()[0], 1);
    assert_eq!(h.mean(), Some(0.0));
}

#[test]
fn empty_histogram_reports_nothing() {
    let h = Histogram::new(&[1, 2]);
    assert_eq!(h.count(), 0);
    assert_eq!(h.mean(), None);
}

#[test]
fn counter_saturates_instead_of_wrapping() {
    let c = Counter::new();
    c.add(u64::MAX - 1);
    c.add(10);
    assert_eq!(c.get(), u64::MAX);
    c.inc();
    assert_eq!(c.get(), u64::MAX);
}

#[test]
fn histogram_sum_saturates() {
    let h = Histogram::new(&[10]);
    h.record(u64::MAX - 1);
    h.record(u64::MAX - 1);
    assert_eq!(h.sum(), u64::MAX);
    assert_eq!(h.count(), 2);
}

#[test]
fn registry_is_get_or_create() {
    let reg = Registry::new();
    let a = reg.counter("x_total", "help");
    let b = reg.counter("x_total", "help");
    a.add(3);
    b.add(4);
    assert_eq!(a.get(), 7);
    assert_eq!(reg.value("x_total"), Some(7));
}

#[test]
fn labeled_series_are_distinct() {
    let reg = Registry::new();
    let port = reg.counter_with(
        "changes_total",
        "per-relation changes",
        &[("relation", "Port")],
    );
    let swit = reg.counter_with(
        "changes_total",
        "per-relation changes",
        &[("relation", "Switch")],
    );
    port.add(5);
    swit.add(2);
    assert_eq!(reg.value("changes_total{relation=\"Port\"}"), Some(5));
    assert_eq!(reg.value("changes_total{relation=\"Switch\"}"), Some(2));
    assert_eq!(reg.series_names().len(), 2);
}

#[test]
#[should_panic(expected = "registered as counter")]
fn kind_mismatch_panics() {
    let reg = Registry::new();
    reg.counter("thing", "help");
    reg.gauge("thing", "help");
}

#[test]
fn concurrent_registration_and_updates_are_consistent() {
    let reg = Arc::new(Registry::new());
    let mut handles = Vec::new();
    for t in 0..8 {
        let reg = reg.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..1_000 {
                // All threads hammer the same counter...
                reg.counter("shared_total", "shared").inc();
                // ...and their own labeled series and histogram.
                let tid = t.to_string();
                reg.counter_with("per_thread_total", "per-thread", &[("t", &tid)])
                    .inc();
                reg.histogram("obs_us", "observations", &[10, 100, 1_000])
                    .record(i % 2_000);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(reg.value("shared_total"), Some(8_000));
    for t in 0..8 {
        assert_eq!(
            reg.value(&format!("per_thread_total{{t=\"{t}\"}}")),
            Some(1_000)
        );
    }
    let h = reg.histogram("obs_us", "observations", &[10, 100, 1_000]);
    assert_eq!(h.count(), 8_000);
    assert_eq!(h.bucket_counts().iter().sum::<u64>(), 8_000);
    validate_exposition(&reg.render_text()).unwrap();
}

/// The exposition format is a contract: scrapers and the CI gate parse
/// it. Any change must update the golden file deliberately.
#[test]
fn exposition_format_matches_golden_file() {
    let reg = Registry::new();
    reg.counter(
        "ovsdb_commits_total",
        "Committed management-plane transactions",
    )
    .add(3);
    reg.gauge("ddlog_zset_rows", "Rows across output relations")
        .set(42);
    let h = reg.histogram(
        "stack_e2e_latency_us",
        "End-to-end commit-to-dataplane latency (us)",
        &[100, 1_000, 10_000],
    );
    h.record(50);
    h.record(50);
    h.record(700);
    h.record(2_000_000);
    reg.counter_with(
        "ddlog_changes_total",
        "Output relation changes by relation",
        &[("relation", "InVlan")],
    )
    .add(5);

    let text = reg.render_text();
    validate_exposition(&text).unwrap();

    let golden = include_str!("golden_exposition.txt");
    assert_eq!(
        text, golden,
        "exposition format drifted from tests/golden_exposition.txt; \
         if the change is intentional, update the golden file"
    );

    // JSON rendering stays parseable and carries the same series.
    let json = reg.render_json();
    assert!(json.contains("\"ovsdb_commits_total\":{\"type\":\"counter\",\"value\":3}"));
    assert!(json.contains("\"ddlog_zset_rows\":{\"type\":\"gauge\",\"value\":42}"));
    assert!(json.contains("\"type\":\"histogram\",\"count\":4"));
}

#[test]
fn validate_exposition_rejects_malformed_text() {
    // No TYPE comment.
    assert!(validate_exposition("orphan_total 3\n").is_err());
    // Bad value.
    assert!(validate_exposition("# TYPE x counter\nx pancake\n").is_err());
    // Bad metric name.
    assert!(validate_exposition("# TYPE 9x counter\n9x 1\n").is_err());
    // Histogram without +Inf bucket.
    let text = "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 5\nh_count 1\n";
    assert!(validate_exposition(text).is_err());
    // Histogram where +Inf disagrees with count.
    let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 5\nh_count 1\n";
    assert!(validate_exposition(text).is_err());
    // Well-formed minimal histogram passes.
    let text =
        "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 5\nh_count 1\n";
    validate_exposition(text).unwrap();
}

#[test]
fn histogram_overflow_counts_saturated_samples() {
    let h = Histogram::new(&[10, 100]);
    assert_eq!(h.overflow(), 0);
    h.record(5);
    h.record(100); // boundary is inclusive: not overflow
    assert_eq!(h.overflow(), 0);
    h.record(101);
    h.record(u64::MAX);
    assert_eq!(h.overflow(), 2);
    assert_eq!(h.count(), 4);
}

#[test]
fn histogram_overflow_is_exported_in_both_expositions() {
    let reg = Registry::new();
    let h = reg.histogram("demo_us", "a demo histogram", &[10, 100]);
    h.record(50);
    h.record(5_000);
    let text = reg.render_text();
    validate_exposition(&text).unwrap();
    assert!(
        text.contains("# TYPE demo_us_overflow_total counter"),
        "{text}"
    );
    assert!(text.contains("demo_us_overflow_total 1"), "{text}");
    let json = reg.render_json();
    assert!(json.contains("\"overflow\":1"), "{json}");

    // Labeled series each carry their own overflow sample.
    let hl = reg.histogram_with("demo_us", "a demo histogram", &[("shard", "3")], &[10, 100]);
    hl.record(7_000);
    hl.record(8_000);
    let text = reg.render_text();
    validate_exposition(&text).unwrap();
    assert!(
        text.contains("demo_us_overflow_total{shard=\"3\"} 2"),
        "{text}"
    );
}

#[test]
fn labeled_histograms_share_family_and_validate() {
    let reg = Registry::new();
    reg.histogram("lag_ns", "per-shard lag", &[1_000]).record(5);
    for shard in 0..3 {
        let label = shard.to_string();
        reg.histogram_with("lag_ns", "per-shard lag", &[("shard", &label)], &[1_000])
            .record(shard * 700);
    }
    let text = reg.render_text();
    validate_exposition(&text).unwrap();
    assert!(
        text.contains("lag_ns_bucket{shard=\"2\",le=\"+Inf\"} 1"),
        "{text}"
    );
    // Same name+labels returns the same underlying series.
    let again = reg.histogram_with("lag_ns", "per-shard lag", &[("shard", "2")], &[1_000]);
    assert_eq!(again.count(), 1);
}
