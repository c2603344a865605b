//! Deterministic network topologies: hosts, links, and P4 switches.
//!
//! The harness is synchronous: injecting a frame processes it through the
//! switch graph immediately (with a hop limit) and returns every host
//! delivery. Digests still fan out through each switch's
//! [`SwitchDevice`] subscription channels, so a controller under test
//! observes exactly what it would observe asynchronously, in a
//! reproducible order.

use std::collections::HashMap;

use p4sim::SwitchDevice;

use crate::frame::Mac;
use crate::proto::Ip4;

/// Identifies a switch in the network.
pub type SwitchId = usize;
/// Identifies a host in the network.
pub type HostId = usize;

/// Where a switch port leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Host(HostId),
    Switch(SwitchId, u16),
}

/// A simulated end host.
#[derive(Debug, Clone)]
pub struct Host {
    /// Host MAC address.
    pub mac: Mac,
    /// Host IPv4 address.
    pub ip: Ip4,
    /// Attachment: (switch, port).
    pub attachment: (SwitchId, u16),
}

/// A frame delivered to a host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The receiving host.
    pub host: HostId,
    /// The frame bytes as received.
    pub bytes: Vec<u8>,
}

/// A network of switches, hosts, and links.
#[derive(Default)]
pub struct Network {
    switches: Vec<SwitchDevice>,
    hosts: Vec<Host>,
    links: HashMap<(SwitchId, u16), Endpoint>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Add a switch device.
    pub fn add_switch(&mut self, device: SwitchDevice) -> SwitchId {
        self.switches.push(device);
        self.switches.len() - 1
    }

    /// Attach a host to a switch port.
    ///
    /// Panics if the port is already wired.
    pub fn add_host(&mut self, mac: Mac, ip: Ip4, switch: SwitchId, port: u16) -> HostId {
        let id = self.hosts.len();
        self.hosts.push(Host {
            mac,
            ip,
            attachment: (switch, port),
        });
        let prev = self.links.insert((switch, port), Endpoint::Host(id));
        assert!(prev.is_none(), "port ({switch},{port}) already wired");
        id
    }

    /// Wire two switch ports together (bidirectional).
    ///
    /// Panics if either port is already wired.
    pub fn connect(&mut self, a: SwitchId, pa: u16, b: SwitchId, pb: u16) {
        let p1 = self.links.insert((a, pa), Endpoint::Switch(b, pb));
        let p2 = self.links.insert((b, pb), Endpoint::Switch(a, pa));
        assert!(p1.is_none() && p2.is_none(), "link endpoint already wired");
    }

    /// Host metadata.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id]
    }

    /// Switch device handle.
    pub fn switch(&self, id: SwitchId) -> &SwitchDevice {
        &self.switches[id]
    }

    /// Send raw bytes from a host; returns every delivery in
    /// deterministic order.
    pub fn send_raw(&self, from: HostId, bytes: Vec<u8>) -> Vec<Delivery> {
        let (sw, port) = self.hosts[from].attachment;
        self.inject(sw, port, bytes)
    }

    /// Inject a frame at a switch port (as if it arrived on the wire).
    pub fn inject(&self, switch: SwitchId, port: u16, bytes: Vec<u8>) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        // (switch, ingress port, frame, remaining hops)
        let mut queue: Vec<(SwitchId, u16, Vec<u8>, u8)> = vec![(switch, port, bytes, 16)];
        while let Some((sw, in_port, frame, hops)) = queue.pop() {
            if hops == 0 {
                continue; // loop guard
            }
            let result = self.switches[sw].inject(in_port, &frame);
            let mut outs = result.outputs;
            // Deterministic processing order.
            outs.sort_by_key(|(p, _)| *p);
            for (out_port, out_bytes) in outs {
                match self.links.get(&(sw, out_port)) {
                    Some(Endpoint::Host(h)) => deliveries.push(Delivery {
                        host: *h,
                        bytes: out_bytes,
                    }),
                    Some(Endpoint::Switch(s2, p2)) => {
                        queue.push((*s2, *p2, out_bytes, hops - 1));
                    }
                    None => {} // unwired port: frame disappears
                }
            }
        }
        deliveries.sort_by(|a, b| (a.host, &a.bytes).cmp(&(b.host, &b.bytes)));
        deliveries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{ethertype, EthFrame};
    use p4sim::{FieldMatch, Switch, TableEntry, Update, WriteOp};

    /// Build a single-switch network with `n` hosts on VLAN 10.
    fn star(n: u32) -> (Network, Vec<HostId>) {
        let device = SwitchDevice::new(Switch::from_source(p4sim::parser::DEMO).unwrap());
        // All ports are access ports on VLAN 10; flooding goes to the
        // VLAN's multicast group.
        let mut updates = Vec::new();
        for port in 1..=n {
            updates.push(Update {
                op: WriteOp::Insert,
                entry: TableEntry {
                    table: "InVlan".into(),
                    matches: vec![FieldMatch::Exact {
                        value: port as u128,
                    }],
                    priority: 0,
                    action: "set_vlan".into(),
                    params: vec![10],
                },
            });
        }
        device.write(&updates).unwrap();
        device.set_mcast_group(10, (1..=n as u16).collect());

        let mut net = Network::new();
        let sw = net.add_switch(device);
        let hosts = (0..n)
            .map(|i| {
                net.add_host(
                    Mac::host(i + 1),
                    Ip4::new(10, 0, 0, (i + 1) as u8),
                    sw,
                    (i + 1) as u16,
                )
            })
            .collect();
        (net, hosts)
    }

    #[test]
    fn flood_reaches_all_but_sender() {
        let (net, hosts) = star(4);
        let f = EthFrame::new(
            Mac::BROADCAST,
            Mac::host(1),
            ethertype::IPV4,
            b"bcast".to_vec(),
        );
        let deliveries = net.send_raw(hosts[0], f.encode());
        let to: Vec<HostId> = deliveries.iter().map(|d| d.host).collect();
        assert_eq!(to, vec![hosts[1], hosts[2], hosts[3]]);
    }

    #[test]
    fn learned_unicast_goes_to_one_port() {
        let (net, hosts) = star(4);
        // Install a learned MAC: host 2's MAC behind port 2.
        net.switch(0)
            .write(&[Update {
                op: WriteOp::Insert,
                entry: TableEntry {
                    table: "MacLearned".into(),
                    matches: vec![
                        FieldMatch::Exact { value: 10 },
                        FieldMatch::Exact {
                            value: Mac::host(2).to_u64() as u128,
                        },
                    ],
                    priority: 0,
                    action: "output".into(),
                    params: vec![2],
                },
            }])
            .unwrap();
        let f = EthFrame::new(Mac::host(2), Mac::host(1), ethertype::IPV4, b"uni".to_vec());
        let deliveries = net.send_raw(hosts[0], f.encode());
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].host, hosts[1]);
        let got = EthFrame::decode(&deliveries[0].bytes).unwrap();
        assert_eq!(got.payload, b"uni");
    }

    #[test]
    fn two_switch_chain() {
        // Two demo switches wired back to back: port 3 of each is the
        // trunk. Flood on sw0 must traverse to sw1's hosts.
        let mk = || SwitchDevice::new(Switch::from_source(p4sim::parser::DEMO).unwrap());
        let mut net = Network::new();
        let s0 = net.add_switch(mk());
        let s1 = net.add_switch(mk());
        for s in [s0, s1] {
            let dev = net.switch(s).clone();
            let mut updates = Vec::new();
            for port in [1u16, 2, 3] {
                updates.push(Update {
                    op: WriteOp::Insert,
                    entry: TableEntry {
                        table: "InVlan".into(),
                        matches: vec![FieldMatch::Exact {
                            value: port as u128,
                        }],
                        priority: 0,
                        action: "set_vlan".into(),
                        params: vec![10],
                    },
                });
            }
            dev.write(&updates).unwrap();
            dev.set_mcast_group(10, vec![1, 2, 3]);
        }
        let h0 = net.add_host(Mac::host(1), Ip4::new(10, 0, 0, 1), s0, 1);
        let h1 = net.add_host(Mac::host(2), Ip4::new(10, 0, 0, 2), s0, 2);
        let h2 = net.add_host(Mac::host(3), Ip4::new(10, 0, 0, 3), s1, 1);
        let h3 = net.add_host(Mac::host(4), Ip4::new(10, 0, 0, 4), s1, 2);
        net.connect(s0, 3, s1, 3);

        let f = EthFrame::new(Mac::BROADCAST, Mac::host(1), ethertype::IPV4, b"x".to_vec());
        let deliveries = net.send_raw(h0, f.encode());
        let mut to: Vec<HostId> = deliveries.iter().map(|d| d.host).collect();
        to.sort_unstable();
        assert_eq!(to, vec![h1, h2, h3]);
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_panics() {
        let (mut net, _) = star(2);
        net.add_host(Mac::host(9), Ip4::new(10, 0, 0, 9), 0, 1);
    }

    #[test]
    fn digests_observed_during_send() {
        let (net, hosts) = star(2);
        let rx = net.switch(0).subscribe_digests();
        let f = EthFrame::new(Mac::BROADCAST, Mac::host(1), ethertype::IPV4, vec![]);
        net.send_raw(hosts[0], f.encode());
        let digests = rx.try_recv().unwrap();
        assert_eq!(digests[0].field("mac"), Some(Mac::host(1).to_u64() as u128));
    }
}
