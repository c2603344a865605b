//! Span trees and convergence as views of flight-recorder events: the
//! derivation itself, and the `Telemetry` views built on it.

use telemetry::{EventView, Plane, SpanTree, Telemetry};

fn ev(at_ns: u64, kind: &'static str, fields: &[(&'static str, u64)]) -> EventView<'static> {
    EventView {
        at_ns,
        kind,
        fields: fields.to_vec(),
    }
}

#[test]
fn stages_become_spans_on_one_clock() {
    let tree = SpanTree::derive(
        7,
        [
            ev(
                1_500,
                "convergence.settled",
                &[("write_ns", 300), ("switch", 1)],
            ),
            ev(1_000, "ovsdb.commit", &[("rows", 2), ("commit_ns", 400)]),
            ev(1_100, "ddlog.apply", &[("wall_ns", 50)]),
            ev(1_200, "shard.push", &[]),
        ],
    )
    .unwrap();
    let names: Vec<&str> = tree.root.children.iter().map(|s| s.name).collect();
    assert_eq!(names, ["ovsdb.commit", "ddlog.apply", "p4.write"]);
    let starts: Vec<u64> = tree.root.children.iter().map(|s| s.start_ns).collect();
    assert_eq!(starts, [0, 450, 600]);
    assert_eq!(tree.root.dur_ns, 900);
    assert_eq!(tree.plane_duration_ns("data"), 300);
    assert_eq!(
        tree.find_span("p4.write").unwrap().attrs,
        [("switch".to_string(), 1)]
    );
    assert!(tree.to_json().contains("\"name\":\"stack.change\""));
    assert!(SpanTree::derive(7, [ev(5, "shard.push", &[])]).is_none());
}

#[test]
fn traces_and_convergence_are_views_of_events() {
    let tel = Telemetry::new();
    tel.convergence_begin(5);
    tel.recorder
        .record(Plane::Control, "ddlog.apply", 5, &[("wall_ns", 10)]);
    tel.convergence_settled(5, 0, None, 3, 20);
    tel.convergence_settled(5, 1, Some(2), 1, 30);
    // No anchor, no settlement.
    tel.convergence_settled(99, 0, None, 1, 40);

    let settled = tel
        .recorder
        .events_where(|e| e.kind == "convergence.settled");
    assert_eq!(settled.len(), 2);
    let lags: Vec<u64> = settled.iter().filter_map(|e| e.field("lag_ns")).collect();
    assert_eq!(tel.lag_of(5), lags.iter().copied().max());
    assert_eq!(tel.lag_of(99), None);
    assert_eq!(settled[1].field("shard"), Some(2));
    assert_eq!(settled[0].field("shard"), None);
    // The lag histograms are folded from those events into this
    // bundle's own registry: the global one and the shard's.
    assert_eq!(tel.registry.value("nerpa_convergence_lag_ns"), Some(2));
    assert_eq!(
        tel.registry.value("nerpa_convergence_lag_ns{shard=\"2\"}"),
        Some(1)
    );
    assert_eq!(
        telemetry::global()
            .registry
            .value("nerpa_convergence_lag_ns"),
        Some(0)
    );

    let json = tel.render_convergence();
    for want in [
        "\"begun\":1",
        "\"settled\":2",
        "\"open\":1",
        "\"trace\":5",
        "\"writes\":2",
        "\"shard\":2",
    ] {
        assert!(json.contains(want), "{want} missing from {json}");
    }

    let tree = tel.trace(5).unwrap();
    let mut names: Vec<&str> = tree.root.children.iter().map(|s| s.name).collect();
    names.sort_unstable();
    assert_eq!(names, ["ddlog.apply", "p4.write", "p4.write"]);
    assert_eq!(tree.plane_duration_ns("data"), 50);
    tel.recorder
        .record(Plane::Control, "ddlog.apply", 6, &[("wall_ns", 10)]);
    let traces: Vec<u64> = tel.traces().iter().map(|t| t.trace).collect();
    assert_eq!(traces, [5, 6]);
}
