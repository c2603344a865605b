//! The workload model every oracle harness shares: the plain-Rust view
//! of the management state (ports) and of what the data plane has
//! learned (live MACs per switch), the lowering of a [`WorkloadOp`]
//! against it into what the stack under test must be fed, and the
//! device ≡ full-recompute-spec comparison.
//!
//! The lockstep [`crate::harness`] and the threaded, real-TCP
//! [`crate::overload`] run differ in *how* a [`Feed`] reaches their
//! controllers (synchronously and fatally vs. through queues that may
//! shed); what an op means, and what the devices must hold afterwards,
//! is defined once, here.

use std::collections::{BTreeMap, BTreeSet};

use baselines::{FullRecompute, LearnedMac, Mode, PortConfig};
use p4sim::runtime::{Digest, TableEntry};
use p4sim::service::SwitchDevice;
use serde_json::{json, Value as Json};

use crate::workload::WorkloadOp;

/// The tables every oracle controller monitors.
pub(crate) const MONITORED: [&str; 2] = ["Port", "Switch"];

/// Multicast group → member ports, empty groups pruned.
pub(crate) type Groups = BTreeMap<u16, BTreeSet<u16>>;

/// What one workload op asks of the stack under test.
pub(crate) enum Feed {
    /// An OVSDB transaction (the op array).
    Transact(Json),
    /// A MAC-learn digest reported by switch `sw`, or (`learn` false)
    /// its ageing retraction.
    Digest {
        sw: usize,
        digest: Digest,
        learn: bool,
    },
}

pub(crate) struct Model {
    switches: usize,
    pub(crate) ports: Vec<PortConfig>,
    /// Learned MACs as `(switch, port, mac, vlan)`.
    live_macs: BTreeSet<(usize, u16, u64, u16)>,
}

impl Model {
    /// An empty network of `switches` switches.
    pub(crate) fn new(switches: usize) -> Model {
        Model {
            switches,
            ports: Vec::new(),
            live_macs: BTreeSet::new(),
        }
    }

    /// The transaction that brings the switches themselves up.
    pub(crate) fn switch_rows(&self) -> Json {
        let rows: Vec<Json> = (0..self.switches)
            .map(|i| json!({"op": "insert", "table": "Switch", "row": {"idx": i}}))
            .collect();
        json!(rows)
    }

    fn port_row_json(cfg: &PortConfig) -> Json {
        let mirror: Vec<u16> = cfg.mirror.into_iter().collect();
        match &cfg.mode {
            Mode::Access(v) => json!({
                "id": cfg.id,
                "vlan_mode": "access",
                "tag": v,
                "trunks": ["set", []],
                "mirror_dst": ["set", mirror],
            }),
            Mode::Trunk(vs) => json!({
                "id": cfg.id,
                "vlan_mode": "trunk",
                "trunks": ["set", vs],
                "mirror_dst": ["set", mirror],
            }),
        }
    }

    /// Upsert a port in the model; returns the matching transaction.
    pub(crate) fn upsert_port(&mut self, cfg: PortConfig) -> Feed {
        let ops = json!([
            {"op": "delete", "table": "Port", "where": [["id", "==", cfg.id]]},
            {"op": "insert", "table": "Port", "row": Self::port_row_json(&cfg)},
        ]);
        self.ports.retain(|p| p.id != cfg.id);
        self.ports.push(cfg);
        Feed::Transact(ops)
    }

    fn digest(port: u16, mac: u64, vlan: u16) -> Digest {
        Digest {
            name: "mac_learn_t".into(),
            fields: vec![
                ("port".into(), port as u128),
                ("mac".into(), mac as u128),
                ("vlan".into(), vlan as u128),
            ],
        }
    }

    /// Record that switch `sw` has (or no longer has) a MAC learned.
    /// `apply` goes through here; a harness whose stack *refused* a
    /// digest calls it again to take the model back.
    pub(crate) fn set_learned(&mut self, sw: usize, digest: &Digest, learned: bool) {
        let f = |name: &str| {
            digest
                .field(name)
                .expect("oracle digests carry every field")
        };
        let key = (sw, f("port") as u16, f("mac") as u64, f("vlan") as u16);
        if learned {
            self.live_macs.insert(key);
        } else {
            self.live_macs.remove(&key);
        }
    }

    /// Lower one workload op against the model: update the model and
    /// return what the stack must be fed (`None`: the op is a no-op in
    /// the current state — an absent port, an already-learned MAC).
    pub(crate) fn apply(&mut self, op: &WorkloadOp) -> Option<Feed> {
        let current = |port: &u16| self.ports.iter().find(|p| p.id == *port).cloned();
        let cfg = match op {
            WorkloadOp::AddAccess { port, vlan } => PortConfig::access(*port, *vlan),
            WorkloadOp::AddTrunk { port, vlans } => PortConfig::trunk(*port, vlans.clone()),
            WorkloadOp::FlipMode { port } => {
                let cur = current(port)?;
                let mut next = match &cur.mode {
                    Mode::Access(v) => PortConfig::trunk(cur.id, vec![*v]),
                    Mode::Trunk(vs) => {
                        PortConfig::access(cur.id, vs.first().copied().unwrap_or(10))
                    }
                };
                next.mirror = cur.mirror;
                next
            }
            WorkloadOp::SetMirror { port, dst } => PortConfig {
                mirror: Some(*dst),
                ..current(port)?
            },
            WorkloadOp::ClearMirror { port } => PortConfig {
                mirror: None,
                ..current(port)?
            },
            WorkloadOp::RemovePort { port } => {
                self.ports.retain(|p| p.id != *port);
                return Some(Feed::Transact(json!([
                    {"op": "delete", "table": "Port", "where": [["id", "==", port]]},
                ])));
            }
            WorkloadOp::Learn { port, mac, vlan } => {
                // Each MAC is reported by a deterministic switch, so
                // every shard's learn path is exercised.
                let sw = (*mac as usize) % self.switches;
                if self.live_macs.contains(&(sw, *port, *mac, *vlan)) {
                    return None; // already learned: the switch dedups
                }
                let digest = Self::digest(*port, *mac, *vlan);
                self.set_learned(sw, &digest, true);
                return Some(Feed::Digest {
                    sw,
                    digest,
                    learn: true,
                });
            }
            WorkloadOp::Age { pick } => {
                let idx = (*pick as usize) % self.live_macs.len().max(1);
                let (sw, port, mac, vlan) = *self.live_macs.iter().nth(idx)?;
                let digest = Self::digest(port, mac, vlan);
                self.set_learned(sw, &digest, false);
                return Some(Feed::Digest {
                    sw,
                    digest,
                    learn: false,
                });
            }
        };
        Some(self.upsert_port(cfg))
    }

    /// The MACs switch `sw` currently has learned.
    pub(crate) fn macs(&self, sw: usize) -> Vec<LearnedMac> {
        self.live_macs
            .iter()
            .filter(|m| m.0 == sw)
            .map(|&(_, port, mac, vlan)| LearnedMac { port, mac, vlan })
            .collect()
    }

    /// The full-recompute specification of switch `sw`: the table
    /// entries and multicast groups it must hold.
    pub(crate) fn spec(&self, sw: usize) -> (BTreeSet<TableEntry>, Groups) {
        let (entries, groups) = FullRecompute::desired_state(&self.ports, &self.macs(sw));
        let groups = groups.into_iter().filter(|(_, m)| !m.is_empty()).collect();
        (entries.into_iter().collect(), groups)
    }

    /// Device ≡ spec: switch `sw`'s device holds exactly the specified
    /// entries and groups. `at` prefixes the failure (which switch).
    pub(crate) fn check_device(
        &self,
        sw: usize,
        device: &SwitchDevice,
        at: &str,
    ) -> Result<(), String> {
        let (spec, spec_groups) = self.spec(sw);
        let have = installed(device);
        if have != spec {
            return Err(diff_entries(
                &format!("{at}installed state differs from spec"),
                &have,
                &spec,
            ));
        }
        let groups = device.mcast_snapshot();
        if groups != spec_groups {
            return Err(format!(
                "{at}multicast groups: device {groups:?} != spec groups {spec_groups:?}"
            ));
        }
        Ok(())
    }
}

/// Every table entry installed on `device`, order-normalized.
pub(crate) fn installed(device: &SwitchDevice) -> BTreeSet<TableEntry> {
    device
        .read_all_tables()
        .into_iter()
        .flat_map(|(_, entries)| entries)
        .collect()
}

pub(crate) fn diff_entries(
    label: &str,
    a: &BTreeSet<TableEntry>,
    b: &BTreeSet<TableEntry>,
) -> String {
    let only_a: Vec<&TableEntry> = a.difference(b).collect();
    let only_b: Vec<&TableEntry> = b.difference(a).collect();
    format!("{label}: extra {only_a:?}, missing {only_b:?}")
}
