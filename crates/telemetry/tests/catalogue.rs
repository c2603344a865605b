//! The event catalogue: every kind is declared once, and recording an
//! event applies its kind's folds to the registry of the bundle that
//! records it, with the recorder on or off.

use telemetry::catalogue::{CONVERGENCE_SETTLED, KINDS, P4_WRITE, P4_WRITE_ERROR};
use telemetry::Telemetry;

#[test]
fn kinds_are_declared_once() {
    for kind in KINDS {
        let same = KINDS.iter().filter(|k| k.name == kind.name).count();
        assert_eq!(same, 1, "{} declared twice", kind.name);
    }
}

#[test]
fn folds_count_sum_observe_and_label_with_the_recorder_off() {
    let tel = Telemetry::new();
    tel.recorder.set_enabled(false);
    let value = |series: &str| tel.registry.value(series);

    tel.record(&P4_WRITE, 0, &[("updates", 3)]);
    tel.record(&P4_WRITE_ERROR, 0, &[("updates", 2)]);
    assert_eq!(value("p4_write_batches_total"), Some(2));
    assert_eq!(value("p4_write_updates_total"), Some(5));
    assert_eq!(value("p4_write_batch_size"), Some(2));
    assert_eq!(value("p4_write_errors_total"), Some(1));

    tel.record(&CONVERGENCE_SETTLED, 0, &[("lag_ns", 10)]);
    tel.record(&CONVERGENCE_SETTLED, 0, &[("lag_ns", 20), ("shard", 2)]);
    tel.record(&CONVERGENCE_SETTLED, 0, &[("lag_ns", 30), ("shard", 2)]);
    assert_eq!(value("nerpa_convergence_lag_ns"), Some(3));
    assert_eq!(value("nerpa_convergence_lag_ns{shard=\"2\"}"), Some(2));
    let text = tel.registry.render_text();
    assert!(
        text.contains("nerpa_convergence_lag_ns_sum{shard=\"2\"} 50"),
        "{text}"
    );
    telemetry::validate_exposition(&text).unwrap();

    assert!(tel.recorder.snapshot().is_empty());
    assert_eq!(value("nerpa_flight_events_total"), Some(0));
}
