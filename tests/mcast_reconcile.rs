//! Reconciling a switch.
//!
//! Flood groups reach a switch registered after they were computed:
//! snvs declares `MulticastGroup(group, port)` without a switch column,
//! so every switch holds every VLAN's flood group. A switch added after
//! the groups were committed must get them all from `reconcile_switch`,
//! like it gets its table entries.
//!
//! A switch that cannot be reconciled leaves an event holding the
//! device's error, so a flight dump shows why it stayed degraded.

use p4sim::service::{ControlClient, ControlService, SwitchDevice};
use p4sim::Switch;
use snvs::{PortMode, SnvsStack};

#[test]
fn late_switch_gets_every_broadcast_flood_group_on_reconcile() {
    let mut stack = SnvsStack::new(1).unwrap();
    for (port, vlan) in [(1u16, 10u16), (2, 10), (3, 20), (4, 30)] {
        stack.add_port(port, PortMode::Access(vlan), None).unwrap();
    }
    stack
        .add_port(5, PortMode::Trunk(vec![10, 20, 30]), None)
        .unwrap();
    let program = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
    let late = SwitchDevice::new(Switch::new(program));
    let id = stack.controller.add_switch(Box::new(late.clone()));
    assert_eq!(id, 1);

    let report = stack.controller.reconcile_switch(id).unwrap();

    let groups = stack.devices[0].mcast_snapshot();
    assert_eq!(groups.len(), 3, "one flood group per VLAN: {groups:?}");
    assert_eq!(report.mcast_groups, 3);
    assert_eq!(late.mcast_snapshot(), groups);
    assert_eq!(stack.controller.mcast_snapshot(id), groups);
}

#[test]
fn a_failed_reconcile_records_the_device_error() {
    let mut stack = SnvsStack::new(1).unwrap();
    stack.add_port(1, PortMode::Access(10), None).unwrap();
    let program = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
    let mut service =
        ControlService::start(SwitchDevice::new(Switch::new(program)), "127.0.0.1:0").unwrap();
    let client = ControlClient::connect(service.local_addr()).unwrap();
    let id = stack.controller.add_switch(Box::new(client));
    service.shutdown();

    let mut results = stack.controller.try_reconcile_switches(&[id]);
    let err = results.remove(&id).unwrap().unwrap_err();

    let events = telemetry::global().recorder.events_where(|e| {
        e.kind == telemetry::catalogue::CONTROLLER_RECONCILE_ERROR.name
            && e.field("switch") == Some(id as u64)
    });
    assert_eq!(events.len(), 1, "{events:?}");
    assert_eq!(events[0].note.as_deref(), Some(err.as_str()));
}
