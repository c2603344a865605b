//! The provenance engine end to end: every P4 table entry and multicast
//! group member a live snvs stack installs resolves — through the
//! controller's table mappings — to a derivation tree rooted entirely
//! in base (OVSDB-mirrored or digest) facts, and entries that are *not*
//! installed get an actionable why-not report.

use ddlog::WhyNode;
use netsim::{ethertype, EthFrame, Mac};
use snvs::{PortMode, SnvsStack};

fn eth(dst: Mac, src: Mac, payload: &[u8]) -> EthFrame {
    EthFrame::new(dst, src, ethertype::IPV4, payload.to_vec())
}

/// Two switches, mixed access/trunk ports, mirroring, and learned MACs
/// on both — the workload every installed entry must be explainable
/// under.
fn loaded_stack() -> SnvsStack {
    let mut stack = SnvsStack::new(2).unwrap();
    for port in [1u16, 2, 3] {
        stack.add_port(port, PortMode::Access(10), None).unwrap();
    }
    stack.add_port(4, PortMode::Access(20), None).unwrap();
    stack
        .add_port(5, PortMode::Trunk(vec![10, 20]), Some(3))
        .unwrap();
    let h1 = stack.add_host(1, 0, 1);
    let h2 = stack.add_host(2, 0, 2);
    let h3 = stack.add_host(3, 1, 1);
    stack
        .send(h1, &eth(Mac::host(2), Mac::host(1), b"a"))
        .unwrap();
    stack
        .send(h2, &eth(Mac::host(1), Mac::host(2), b"b"))
        .unwrap();
    stack
        .send(h3, &eth(Mac::BROADCAST, Mac::host(3), b"c"))
        .unwrap();
    stack
}

fn assert_rooted(tree: &WhyNode, what: &str) {
    assert!(
        tree.rooted_in_base(),
        "{what}: derivation tree not rooted in base facts:\n{}",
        tree.render_text()
    );
}

#[test]
fn every_installed_entry_and_group_resolves_to_base_facts() {
    let stack = loaded_stack();
    let controller = &stack.controller;
    let mut entries_checked = 0;
    let mut members_checked = 0;
    for sw in 0..stack.devices.len() {
        for entry in controller.desired_entries(sw).unwrap() {
            let tree = controller
                .why_entry(sw, &entry)
                .unwrap_or_else(|e| panic!("switch {sw} entry {entry:?}: {e}"));
            assert_rooted(&tree, &format!("switch {sw} entry {entry:?}"));
            entries_checked += 1;
        }
        for (group, ports) in controller.mcast_snapshot(sw) {
            for port in ports {
                let tree = controller
                    .why_mcast(sw, group, port)
                    .unwrap_or_else(|e| panic!("switch {sw} group {group} port {port}: {e}"));
                assert_rooted(&tree, &format!("switch {sw} group {group} port {port}"));
                members_checked += 1;
            }
        }
    }
    // The workload must actually exercise the stack: VLAN classification
    // and learned MACs on both switches, plus flood groups.
    assert!(
        entries_checked >= 10,
        "expected a loaded data plane, checked only {entries_checked} entries"
    );
    assert!(members_checked >= 4, "expected flood-group members");
    // The installed entries on the devices are exactly the explained
    // desired sets (the e2e guarantee "from OVSDB row to P4 entry").
    for (sw, device) in stack.devices.iter().enumerate() {
        let installed: std::collections::BTreeSet<_> = device
            .read_all_tables()
            .into_iter()
            .flat_map(|(_, es)| es)
            .collect();
        assert_eq!(installed, controller.desired_entries(sw).unwrap());
    }
    controller.engine().validate_provenance().unwrap();
}

#[test]
fn retraction_prunes_provenance_end_to_end() {
    let mut stack = loaded_stack();
    // Removing port 2 retracts its VLAN membership: the flood group
    // member disappears and so must every derivation that cited it.
    stack.remove_port(2).unwrap();
    let controller = &stack.controller;
    assert!(
        !controller
            .mcast_snapshot(0)
            .get(&10)
            .is_some_and(|m| m.contains(&2)),
        "flood group still lists removed port"
    );
    let err = controller.why_mcast(0, 10, 2).unwrap_err();
    assert!(
        err.contains("no MulticastGroup row"),
        "expected unresolvable member, got: {err}"
    );
    // And the engine can say exactly why it is gone now.
    let report = controller
        .engine()
        .why_not(
            "MulticastGroup",
            vec![ddlog::Value::bit(16, 10), ddlog::Value::bit(16, 2)],
        )
        .unwrap();
    assert!(!report.present);
    controller.engine().validate_provenance().unwrap();
}

#[test]
fn why_not_explains_missing_entries() {
    let stack = loaded_stack();
    let controller = &stack.controller;
    // A MAC that was never learned: the first failing literal must be
    // the digest relation.
    let report = controller
        .engine()
        .why_not(
            "MacLearned",
            vec![
                ddlog::Value::Int(0),
                ddlog::Value::bit(12, 10),
                ddlog::Value::bit(48, 0xdead),
                ddlog::Value::str("output"),
                ddlog::Value::bit(16, 1),
            ],
        )
        .unwrap();
    assert!(!report.present);
    let text = report.render_text();
    assert!(
        text.contains("mac_learn_t"),
        "why-not must name the digest relation:\n{text}"
    );
}

#[test]
fn default_constructor_answers_why_and_serves_the_why_page() {
    // Nothing to arm: the stack every other test and the production
    // controller build with `Controller::new` answers every question.
    let stack = loaded_stack();
    let controller = &stack.controller;
    let entry = controller
        .desired_entries(0)
        .unwrap()
        .into_iter()
        .next()
        .unwrap();
    let tree = controller.why_entry(0, &entry).unwrap();
    assert_rooted(&tree, "first installed entry");
    assert!(!tree.truncated && tree.examined > 0);
    assert_rooted(&controller.why_mcast(0, 10, 1).unwrap(), "group 10 port 1");
    let mut absent = entry.clone();
    absent.matches = vec![p4sim::runtime::FieldMatch::Exact { value: 999 }; entry.matches.len()];
    let report = controller.why_not_entry(0, &absent).unwrap();
    assert!(!report.present && !report.candidates.is_empty());

    let endpoint = controller.serve_introspection("127.0.0.1:0").unwrap();
    let (status, body) = telemetry::http_get(endpoint.local_addr(), "/why").unwrap();
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"schema\":\"nerpa.why.v1\""), "{body}");
    let in_vlan = controller.engine().relation_len("InVlan").unwrap();
    assert!(
        body.contains(&format!("{{\"relation\":\"InVlan\",\"rows\":{in_vlan}}}")),
        "{body}"
    );
}

#[test]
fn why_not_entry_rejects_a_param_count_mismatch() {
    let stack = loaded_stack();
    let controller = &stack.controller;
    // `set_port_vlan` declares one parameter; an entry carrying none is
    // an error to report, not an index to run past.
    let mut entry = controller
        .desired_entries(0)
        .unwrap()
        .into_iter()
        .find(|e| e.action == "set_port_vlan")
        .unwrap();
    entry.params.clear();
    let err = controller.why_not_entry(0, &entry).unwrap_err();
    for needle in ["InVlan", "set_port_vlan", "0 param", "declares 1"] {
        assert!(err.contains(needle), "error must name {needle}: {err}");
    }
    assert!(controller.why_entry(0, &entry).is_err());
}

#[test]
fn entries_resolve_through_the_inverse_to_the_row_a_scan_finds() {
    let stack = loaded_stack();
    let controller = &stack.controller;
    let program = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
    let bindings = nerpa::codegen::p4info2ddlog(
        &p4sim::P4Info::from_program(&program),
        nerpa::codegen::CodegenOptions { per_switch: true },
    )
    .tables;
    let engine = controller.engine();
    let mut checked = 0;
    for sw in 0..stack.devices.len() {
        for entry in controller.desired_entries(sw).unwrap() {
            let binding = bindings.iter().find(|b| b.relation == entry.table).unwrap();
            // The reference resolution: scan the relation's dump for
            // the row the forward conversion maps to this entry.
            let scanned: Vec<_> = engine
                .dump(&entry.table)
                .unwrap()
                .into_iter()
                .filter(|row| {
                    let (target, update) = nerpa::convert::row_to_update(row, 1, binding).unwrap();
                    target.is_none_or(|t| t == sw) && update.entry == entry
                })
                .collect();
            assert_eq!(scanned.len(), 1, "{entry:?} maps back to one row");
            let (rel, row) = controller.entry_source(sw, &entry).unwrap();
            assert_eq!((rel.as_str(), &row), (entry.table.as_str(), &scanned[0]));
            // And the inverse round-trips through the forward conversion.
            let (target, update) = nerpa::convert::row_to_update(&row, 1, binding).unwrap();
            assert_eq!((target, update.entry), (Some(sw), entry));
            checked += 1;
        }
        for (group, ports) in controller.mcast_snapshot(sw) {
            for port in ports {
                let scanned: Vec<_> = engine
                    .dump("MulticastGroup")
                    .unwrap()
                    .into_iter()
                    .filter(|r| {
                        r[0].as_u128() == Some(group as u128)
                            && r[1].as_u128() == Some(port as u128)
                    })
                    .collect();
                assert_eq!(scanned.len(), 1);
                assert_eq!(
                    controller.why_mcast(sw, group, port).unwrap().row,
                    scanned[0]
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 14,
        "expected a loaded data plane, checked {checked}"
    );
}

/// 4 switches × `ports` ports in one transaction: every 10th a trunk on
/// VLANs 1–2, the rest access ports spread over 50 VLANs; three MACs
/// learned by traffic.
fn scaled_stack(ports: u16) -> SnvsStack {
    let mut stack = SnvsStack::new(4).unwrap();
    let ops: Vec<_> = (1..=ports)
        .map(|id| {
            let row = if id % 10 == 0 {
                serde_json::json!({"id": id, "vlan_mode": "trunk", "trunks": ["set", [1, 2]]})
            } else {
                serde_json::json!({"id": id, "vlan_mode": "access", "tag": 1 + id % 50})
            };
            serde_json::json!({"op": "insert", "table": "Port", "row": row})
        })
        .collect();
    stack.transact(serde_json::Value::Array(ops)).unwrap();
    for (n, port) in [(1u32, 1u16), (2, 51), (3, 101)] {
        let host = stack.add_host(n, 0, port);
        stack
            .send(host, &eth(Mac::BROADCAST, Mac::host(n), b"hello"))
            .unwrap();
    }
    stack
}

/// The cost of a question, by counts rather than wall time: at 2 000
/// ports × 4 switches (8 000 `InVlan` rows) every answer is complete
/// and examines a number of rows fixed by the literals it walks — the
/// matches where an arrangement covers the bound columns (`PortVlan` by
/// (port, vlan), the aggregate's group), one scan of the relation where
/// none does (`Port` and `Switch` are only ever a rule's unkeyed atom,
/// so no rule asks the engine to index them) — and never by the size of
/// the derived state.
#[test]
fn why_cost_at_2000_ports_is_matches_plus_unindexed_scans() {
    const PORTS: usize = 2000;
    const SWITCHES: usize = 4;
    let stack = scaled_stack(PORTS as u16);
    let controller = &stack.controller;
    let engine = controller.engine();
    assert_eq!(engine.relation_len("InVlan").unwrap(), PORTS * SWITCHES);
    let entries = controller.desired_entries(0).unwrap();
    // InVlan / OutVlan: per rule one Switch scan and one Port scan to
    // find the derivation, the same again to list its supports.
    // MacLearned: the group lookup, then per contributor one digest
    // lookup, one PortVlan probe and — below it — three Port scans (two
    // PortVlan rules searched, one support listed).
    for (table, scans_of_port) in [("InVlan", 2), ("OutVlan", 2), ("MacLearned", 3)] {
        let of_table: Vec<_> = entries.iter().filter(|e| e.table == table).collect();
        assert!(!of_table.is_empty(), "no {table} entries installed");
        for entry in of_table.iter().step_by(of_table.len().div_ceil(5)) {
            let tree = controller.why_entry(0, entry).unwrap();
            assert_rooted(&tree, &format!("{entry:?}"));
            assert!(!tree.truncated, "{entry:?} truncated");
            let bound = scans_of_port * (PORTS + SWITCHES) + 16;
            assert!(
                tree.examined <= bound,
                "{entry:?}: examined {} rows, bound {bound}",
                tree.examined
            );
        }
    }
    // A flood-group member: MulticastGroup → PortVlan is one indexed
    // probe (the head's casts are inverted), PortVlan → Port as above.
    let tree = controller.why_mcast(0, 2, 51).unwrap();
    assert_rooted(&tree, "group 2 port 51");
    assert!(!tree.truncated);
    assert!(
        tree.examined <= 3 * PORTS + 16,
        "examined {}",
        tree.examined
    );
    // An entry that is not installed costs no more to explain.
    let mut absent = (*entries.iter().find(|e| e.table == "InVlan").unwrap()).clone();
    absent.matches[0] = p4sim::runtime::FieldMatch::Exact { value: 60_000 };
    let report = controller.why_not_entry(0, &absent).unwrap();
    assert!(!report.present && !report.truncated);
    assert!(
        report.examined <= 2 * (PORTS + SWITCHES),
        "examined {}",
        report.examined
    );
    assert!(
        report
            .render_text()
            .contains("no row matches Port(_, 60000,"),
        "{}",
        report.render_text()
    );
}
