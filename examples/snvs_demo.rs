//! snvs demo: the paper's §4.3 example application in action.
//!
//! Builds a two-switch network (a trunk between them), configures access
//! and trunk ports through the management plane, sends traffic, and
//! narrates what the stack does: VLAN-scoped flooding, MAC learning via
//! the digest feedback loop, convergence to unicast, port mirroring, and
//! incremental retraction when a port is removed.
//!
//! Run with: `cargo run --example snvs_demo`

use netsim::{ethertype, EthFrame, Mac};
use snvs::{PortMode, SnvsStack};

fn frame(dst: Mac, src: Mac, text: &str) -> EthFrame {
    EthFrame::new(dst, src, ethertype::IPV4, text.as_bytes().to_vec())
}

fn main() {
    let mut stack = SnvsStack::new(2).expect("stack");

    // Management plane: ports 1-2 are access ports (VLANs 10 and 20),
    // port 3 is the inter-switch trunk.
    stack.add_port(1, PortMode::Access(10), None).unwrap();
    stack.add_port(2, PortMode::Access(20), None).unwrap();
    stack
        .add_port(3, PortMode::Trunk(vec![10, 20]), None)
        .unwrap();
    println!("configured: port1=access vlan10, port2=access vlan20, port3=trunk 10+20");

    // Hosts: a1/b1 on VLAN 10 (one per switch), a2/b2 on VLAN 20.
    let a1 = stack.add_host(1, 0, 1);
    let a2 = stack.add_host(2, 0, 2);
    let b1 = stack.add_host(3, 1, 1);
    let b2 = stack.add_host(4, 1, 2);
    stack.net.connect(0, 3, 1, 3);
    println!("hosts: a1(sw0/vlan10) a2(sw0/vlan20) b1(sw1/vlan10) b2(sw1/vlan20)\n");

    // 1. Unknown destination: flood, scoped to VLAN 10, across the trunk.
    let d = stack
        .send(a1, &frame(Mac::host(3), Mac::host(1), "hello b1"))
        .unwrap();
    let who: Vec<_> = d.iter().map(|x| x.host).collect();
    println!("a1 -> b1 (unknown): delivered to hosts {who:?} (flooded VLAN 10 only)");
    assert_eq!(who, vec![b1]);
    assert!(!who.contains(&a2) && !who.contains(&b2), "VLAN isolation");

    // 2. The digest taught the controller a1's location; reply is unicast.
    let d = stack
        .send(b1, &frame(Mac::host(1), Mac::host(3), "hi a1"))
        .unwrap();
    println!(
        "b1 -> a1: {} delivery(ies), learned-unicast across the trunk",
        d.len()
    );
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].host, a1);

    // 3. Now a1 -> b1 is unicast too.
    let d = stack
        .send(a1, &frame(Mac::host(3), Mac::host(1), "again"))
        .unwrap();
    assert_eq!(d.len(), 1);
    println!("a1 -> b1 (learned): unicast, {} delivery", d.len());

    // Inspect the MAC table the control plane computed.
    let macs = stack.controller.engine().dump("MacLearned").unwrap();
    println!("\ncontrol-plane MacLearned relation ({} rows):", macs.len());
    for m in &macs {
        println!("  {m:?}");
    }

    // 4. Mirroring: mirror port 1's ingress to port 5.
    stack.add_port(5, PortMode::Access(10), None).unwrap();
    stack.remove_port(1).unwrap();
    stack.add_port(1, PortMode::Access(10), Some(5)).unwrap();
    let monitor = stack.add_host(9, 0, 5);
    let d = stack
        .send(a1, &frame(Mac::host(3), Mac::host(1), "mirrored"))
        .unwrap();
    let who: Vec<_> = d.iter().map(|x| x.host).collect();
    println!("\nafter enabling mirroring: a1 -> b1 delivered to {who:?} (monitor={monitor})");
    assert!(who.contains(&monitor));

    // 5. Incremental retraction: removing port 3 (the trunk) cuts the
    // switches apart; a1's traffic no longer reaches b1.
    stack.remove_port(3).unwrap();
    let d = stack
        .send(a1, &frame(Mac::host(3), Mac::host(1), "cut off"))
        .unwrap();
    let who: Vec<_> = d.iter().map(|x| x.host).collect();
    println!("after removing the trunk: a1 -> b1 delivered to {who:?} (b1 unreachable)");
    assert!(!who.contains(&b1));

    println!(
        "\ncontroller: {} engine transactions committed",
        stack.controller.engine().commits()
    );
    println!("done.");
}
