//! snvs — the simple network virtual switch from §4.3 of the Full-Stack
//! SDN paper, built on the Nerpa framework.
//!
//! Features: VLANs (access and trunk ports with tag push/pop), MAC
//! learning through data-plane digests, unknown-destination flooding
//! scoped per VLAN, and ingress port mirroring.
//!
//! The programmer-visible artifacts live in [`assets`]: ~100 lines of P4,
//! a 5-column OVSDB table, and ~30 lines of DDlog rules. [`SnvsStack`]
//! wires the full system together — database, incremental controller,
//! behavioral switches, and a packet-level network.
#![warn(missing_docs)]

pub mod assets;

use crossbeam_channel::Receiver;
use nerpa::codegen::CodegenOptions;
use nerpa::controller::{Controller, NerpaProgram};
use netsim::topo::{Delivery, HostId, Network, SwitchId};
use netsim::{EthFrame, Ip4, Mac};
use ovsdb::Database;
use p4sim::runtime::Digest;
use p4sim::service::SwitchDevice;
use p4sim::Switch;
use serde_json::{json, Value as Json};

/// VLAN membership mode for a port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortMode {
    /// Access port on one VLAN.
    Access(u16),
    /// Trunk port carrying the listed VLANs.
    Trunk(Vec<u16>),
}

/// The full snvs stack, wired in-process for deterministic tests and
/// benchmarks. (The same pieces also run over TCP; see the integration
/// tests.)
pub struct SnvsStack {
    /// The management-plane database.
    pub db: Database,
    /// The Nerpa controller.
    pub controller: Controller,
    /// The packet network.
    pub net: Network,
    /// Switch devices, by controller switch id.
    pub devices: Vec<SwitchDevice>,
    digest_rxs: Vec<Receiver<Vec<Digest>>>,
}

impl SnvsStack {
    /// Build a stack with `num_switches` switches (usually 1).
    pub fn new(num_switches: usize) -> Result<SnvsStack, String> {
        let schema = ovsdb::Schema::parse(assets::SNVS_SCHEMA)?;
        let program = p4sim::parse_p4(assets::SNVS_P4).map_err(|e| e.to_string())?;
        let p4info = p4sim::P4Info::from_program(&program);
        let nerpa_program = NerpaProgram {
            schema: schema.clone(),
            p4info,
            rules: assets::SNVS_RULES.to_string(),
            options: CodegenOptions { per_switch: true },
        };
        let mut controller = Controller::new(&nerpa_program)?;
        let db = Database::new(schema);
        let mut net = Network::new();
        let mut devices = Vec::new();
        let mut digest_rxs = Vec::new();
        for _ in 0..num_switches {
            let device = SwitchDevice::new(Switch::new(program.clone()));
            digest_rxs.push(device.subscribe_digests());
            controller.add_switch(Box::new(device.clone()));
            net.add_switch(device.clone());
            devices.push(device);
        }
        let mut stack = SnvsStack {
            db,
            controller,
            net,
            devices,
            digest_rxs,
        };
        // Register each switch in the management plane so the rules can
        // enumerate them.
        for idx in 0..num_switches {
            stack.transact(json!([
                {"op": "insert", "table": "Switch", "row": {"idx": idx}}
            ]))?;
        }
        Ok(stack)
    }

    /// Run an OVSDB transaction and feed the committed changes to the
    /// controller. Returns the per-operation results.
    pub fn transact(&mut self, ops: Json) -> Result<Json, String> {
        let (results, changes) = self.db.transact(&ops);
        if !changes.is_empty() {
            self.controller.handle_row_changes(&changes)?;
        }
        Ok(results)
    }

    /// Configure a port through the management plane.
    pub fn add_port(
        &mut self,
        id: u16,
        mode: PortMode,
        mirror_dst: Option<u16>,
    ) -> Result<(), String> {
        let mut row = serde_json::Map::new();
        row.insert("id".into(), json!(id));
        match &mode {
            PortMode::Access(tag) => {
                row.insert("vlan_mode".into(), json!("access"));
                row.insert("tag".into(), json!(tag));
            }
            PortMode::Trunk(vlans) => {
                row.insert("vlan_mode".into(), json!("trunk"));
                row.insert("trunks".into(), json!(["set", vlans]));
            }
        }
        if let Some(d) = mirror_dst {
            row.insert("mirror_dst".into(), json!(d));
        }
        let results = self.transact(json!([{"op": "insert", "table": "Port", "row": row}]))?;
        if let Some(err) = results
            .as_array()
            .and_then(|a| a.iter().find(|r| r.get("error").is_some()))
        {
            return Err(err.to_string());
        }
        Ok(())
    }

    /// Remove a port through the management plane.
    pub fn remove_port(&mut self, id: u16) -> Result<(), String> {
        self.transact(json!([
            {"op": "delete", "table": "Port", "where": [["id", "==", id]]}
        ]))?;
        Ok(())
    }

    /// Attach a host to a switch port (host `n` gets MAC
    /// `02:00:00:00:00:NN` and IP `10.0.x.y`).
    pub fn add_host(&mut self, n: u32, switch: SwitchId, port: u16) -> HostId {
        self.net.add_host(
            Mac::host(n),
            Ip4::new(10, 0, (n >> 8) as u8, n as u8),
            switch,
            port,
        )
    }

    /// Send a frame from a host, then pump any digests back through the
    /// controller (the learning feedback loop).
    pub fn send(&mut self, from: HostId, frame: &EthFrame) -> Result<Vec<Delivery>, String> {
        let deliveries = self.net.send_raw(from, frame.encode());
        self.pump_digests()?;
        Ok(deliveries)
    }

    /// Drain pending digests from every switch into the controller.
    /// Returns how many digests were handled.
    pub fn pump_digests(&mut self) -> Result<usize, String> {
        let mut handled = 0;
        for (sw, rx) in self.digest_rxs.iter().enumerate() {
            let mut batch = Vec::new();
            while let Ok(ds) = rx.try_recv() {
                batch.extend(ds);
            }
            if !batch.is_empty() {
                handled += batch.len();
                self.controller.handle_digests(sw, &batch)?;
            }
        }
        Ok(handled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::ethertype;

    fn eth(dst: Mac, src: Mac, payload: &[u8]) -> EthFrame {
        EthFrame::new(dst, src, ethertype::IPV4, payload.to_vec())
    }

    /// One switch, three access ports on VLAN 10 and one on VLAN 20.
    fn basic_stack() -> (SnvsStack, Vec<HostId>) {
        let mut stack = SnvsStack::new(1).unwrap();
        for port in [1u16, 2, 3] {
            stack.add_port(port, PortMode::Access(10), None).unwrap();
        }
        stack.add_port(4, PortMode::Access(20), None).unwrap();
        let hosts = (1..=4u32).map(|n| stack.add_host(n, 0, n as u16)).collect();
        (stack, hosts)
    }

    #[test]
    fn unknown_destination_floods_vlan_only() {
        let (mut stack, hosts) = basic_stack();
        let d = stack
            .send(hosts[0], &eth(Mac::host(2), Mac::host(1), b"first"))
            .unwrap();
        // Destination unknown: flood to VLAN 10 members (ports 2, 3) but
        // never to VLAN 20's port 4.
        let to: Vec<HostId> = d.iter().map(|x| x.host).collect();
        assert_eq!(to, vec![hosts[1], hosts[2]]);
    }

    #[test]
    fn learning_converges_to_unicast() {
        let (mut stack, hosts) = basic_stack();
        // h1 → h2 floods and teaches the controller where h1 lives.
        stack
            .send(hosts[0], &eth(Mac::host(2), Mac::host(1), b"a"))
            .unwrap();
        // h2 → h1 now goes straight to port 1 (and teaches h2's port).
        let d = stack
            .send(hosts[1], &eth(Mac::host(1), Mac::host(2), b"b"))
            .unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].host, hosts[0]);
        // h1 → h2 is unicast too.
        let d = stack
            .send(hosts[0], &eth(Mac::host(2), Mac::host(1), b"c"))
            .unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].host, hosts[1]);
    }

    #[test]
    fn vlan_isolation() {
        let (mut stack, hosts) = basic_stack();
        // Teach the controller where h4 (VLAN 20) is.
        stack
            .send(hosts[3], &eth(Mac::BROADCAST, Mac::host(4), b"x"))
            .unwrap();
        // h1 (VLAN 10) sending to h4's MAC cannot reach it: the MAC is
        // learned under VLAN 20, so the frame floods VLAN 10 only.
        let d = stack
            .send(hosts[0], &eth(Mac::host(4), Mac::host(1), b"y"))
            .unwrap();
        let to: Vec<HostId> = d.iter().map(|x| x.host).collect();
        assert_eq!(to, vec![hosts[1], hosts[2]]);
    }

    #[test]
    fn port_removal_retracts_state() {
        let (mut stack, hosts) = basic_stack();
        stack
            .send(hosts[0], &eth(Mac::BROADCAST, Mac::host(1), b"x"))
            .unwrap();
        // Removing port 2 shrinks the VLAN 10 flood domain.
        stack.remove_port(2).unwrap();
        let d = stack
            .send(hosts[0], &eth(Mac::BROADCAST, Mac::host(1), b"y"))
            .unwrap();
        let to: Vec<HostId> = d.iter().map(|x| x.host).collect();
        assert_eq!(to, vec![hosts[2]]);
        // And the InVlan entry for port 2 is gone: traffic from h2 dies.
        let d = stack
            .send(hosts[1], &eth(Mac::BROADCAST, Mac::host(2), b"z"))
            .unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn trunk_carries_traffic_between_switches() {
        // Two switches; port 3 on each is a trunk carrying VLANs 10+20.
        // Ports are global rows in this simple schema: both switches get
        // the same configuration (single-program deployment, as in the
        // paper's prototype).
        let mut stack = SnvsStack::new(2).unwrap();
        stack.add_port(1, PortMode::Access(10), None).unwrap();
        stack.add_port(2, PortMode::Access(20), None).unwrap();
        stack
            .add_port(3, PortMode::Trunk(vec![10, 20]), None)
            .unwrap();
        let h_a1 = stack.add_host(1, 0, 1);
        let _h_a2 = stack.add_host(2, 0, 2);
        let h_b1 = stack.add_host(3, 1, 1);
        let _h_b2 = stack.add_host(4, 1, 2);
        stack.net.connect(0, 3, 1, 3);

        // Broadcast from h_a1 (VLAN 10): must reach h_b1 (VLAN 10 on the
        // other switch) untagged, and nobody on VLAN 20.
        let d = stack
            .send(h_a1, &eth(Mac::BROADCAST, Mac::host(1), b"hello"))
            .unwrap();
        let to: Vec<HostId> = d.iter().map(|x| x.host).collect();
        assert_eq!(to, vec![h_b1]);
        // Delivered frame is untagged again (access egress popped the
        // trunk tag).
        let f = EthFrame::decode(&d[0].bytes).unwrap();
        assert_eq!(f.vlan, None);
        assert_eq!(f.payload, b"hello");
    }

    #[test]
    fn mirroring_copies_ingress_traffic() {
        let mut stack = SnvsStack::new(1).unwrap();
        stack.add_port(1, PortMode::Access(10), Some(5)).unwrap();
        stack.add_port(2, PortMode::Access(10), None).unwrap();
        let h1 = stack.add_host(1, 0, 1);
        let h2 = stack.add_host(2, 0, 2);
        let monitor = stack.add_host(9, 0, 5);
        let d = stack
            .send(h1, &eth(Mac::host(2), Mac::host(1), b"secret"))
            .unwrap();
        let to: Vec<HostId> = d.iter().map(|x| x.host).collect();
        // Flood to h2 plus the mirror copy.
        assert!(to.contains(&h2));
        assert!(
            to.contains(&monitor),
            "mirror port must receive a copy: {to:?}"
        );
    }

    #[test]
    fn paper_loc_claim_sanity() {
        // §4.3: snvs is ~350 DDlog + 300 P4 + a small schema. Our
        // artifacts are the same order of magnitude (exact numbers are
        // regenerated by the E3 report).
        let loc = |s: &str| s.lines().filter(|l| !l.trim().is_empty()).count();
        assert!(loc(assets::SNVS_P4) < 400);
        assert!(loc(assets::SNVS_RULES) < 100);
        assert!(loc(assets::SNVS_SCHEMA) < 100);
    }
}
