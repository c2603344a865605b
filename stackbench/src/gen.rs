//! The seeded, program-blind generator: the preloaded port layout and
//! the operation streams of every workload. `--seed` reaches nothing
//! but this module; the program under test only ever sees the
//! operations it produces.

use std::collections::{HashMap, VecDeque};

use baselines::model::{LearnedMac, Mode, PortConfig};
use serde_json::{json, Value as Json};

use crate::settle::{mac_subject, Cond, Subject, Witness};

/// Switches in every stack.
pub const SWITCHES: usize = 4;
/// VLANs the preloaded access ports are spread over.
pub const VLANS: u16 = 64;
/// First VLAN id in use.
pub const VLAN_BASE: u16 = 10;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One single-row management-plane transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigOp {
    /// Move an access port to another VLAN.
    Tag { port: u16, old: u16, tag: u16 },
    /// Set (`Some`) or clear the port's mirror destination.
    Mirror { port: u16, dst: Option<u16> },
    /// Access port becomes a trunk carrying its VLAN and one more.
    ToTrunk { port: u16, vlans: [u16; 2] },
    /// The trunk goes back to being an access port on `tag`, leaving
    /// VLAN `extra`.
    ToAccess { port: u16, tag: u16, extra: u16 },
    /// Delete the row and insert it again on another VLAN, in one
    /// transaction.
    Readd { port: u16, old: u16, tag: u16 },
}

fn access_row(port: u16, tag: u16) -> Json {
    json!({"id": port, "vlan_mode": "access", "tag": tag})
}

fn on_every_switch(cond: Cond) -> impl Iterator<Item = Witness> {
    (0..SWITCHES).map(move |switch| Witness {
        switch,
        cond: cond.clone(),
    })
}

fn invlan(port: u16, tagged: bool, params: Option<Vec<u128>>) -> Cond {
    Cond::Entry {
        table: "InVlan",
        key: (port as u128, tagged as u128),
        params,
    }
}

fn member(group: u16, port: u16, present: bool) -> Cond {
    Cond::Member {
        group,
        port,
        present,
    }
}

/// An access port on `tag` is installed: its classification entry and
/// its flood-group membership, on every switch.
pub fn access_port_landed(port: u16, tag: u16) -> Vec<Witness> {
    [
        invlan(port, false, Some(vec![tag as u128])),
        member(tag, port, true),
    ]
    .into_iter()
    .flat_map(on_every_switch)
    .collect()
}

impl ConfigOp {
    pub fn port(&self) -> u16 {
        match self {
            ConfigOp::Tag { port, .. }
            | ConfigOp::Mirror { port, .. }
            | ConfigOp::ToTrunk { port, .. }
            | ConfigOp::ToAccess { port, .. }
            | ConfigOp::Readd { port, .. } => *port,
        }
    }

    pub fn subject(&self) -> Subject {
        self.port() as Subject
    }

    /// The OVSDB operations of the transaction.
    pub fn transact(&self) -> Json {
        let by_id = |port: u16| json!([["id", "==", port]]);
        let update = |port: u16, row: Json| json!([{"op": "update", "table": "Port", "where": by_id(port), "row": row}]);
        match self {
            ConfigOp::Tag { port, tag, .. } => update(*port, json!({"tag": tag})),
            ConfigOp::Mirror { port, dst } => {
                let dst = dst.map_or(json!(["set", []]), |d| json!(d));
                update(*port, json!({"mirror_dst": dst}))
            }
            ConfigOp::ToTrunk { port, vlans } => update(
                *port,
                json!({"vlan_mode": "trunk", "tag": ["set", []],
                       "trunks": ["set", [vlans[0], vlans[1]]]}),
            ),
            ConfigOp::ToAccess { port, tag, .. } => update(
                *port,
                json!({"vlan_mode": "access", "tag": tag, "trunks": ["set", []]}),
            ),
            ConfigOp::Readd { port, tag, .. } => json!([
                {"op": "delete", "table": "Port", "where": by_id(*port)},
                {"op": "insert", "table": "Port", "row": access_row(*port, *tag)}
            ]),
        }
    }

    /// What every switch must hold once the change is installed: the
    /// table entry the change rewrites and the flood-group memberships
    /// it moves (the program pushes groups after entries, so the
    /// memberships are what completes last).
    pub fn witnesses(&self) -> Vec<Witness> {
        let conds = match *self {
            ConfigOp::Tag { port, old, tag } | ConfigOp::Readd { port, old, tag } => {
                let mut w = access_port_landed(port, tag);
                w.extend(on_every_switch(member(old, port, false)));
                return w;
            }
            ConfigOp::Mirror { port, dst } => vec![Cond::Entry {
                table: "Mirror",
                key: (port as u128, 0),
                params: dst.map(|d| vec![d as u128]),
            }],
            ConfigOp::ToTrunk { port, vlans } => vec![
                invlan(port, true, Some(vec![])),
                invlan(port, false, None),
                member(vlans[1], port, true),
            ],
            ConfigOp::ToAccess { port, tag, extra } => vec![
                invlan(port, false, Some(vec![tag as u128])),
                invlan(port, true, None),
                member(extra, port, false),
            ],
        };
        conds.into_iter().flat_map(on_every_switch).collect()
    }
}

/// The bench's model of the management database plus the generator of
/// configuration changes against it.
#[derive(Debug, Clone)]
pub struct ConfigGen {
    rng: Rng,
    /// Index `i` holds port id `i + 1`.
    ports: Vec<PortConfig>,
    /// The one port currently flipped to trunk, with its VLANs (access
    /// VLAN first); the next flip puts it back, so the port mix stays
    /// stationary.
    open_trunk: Option<(u16, [u16; 2])>,
    /// The one port currently mirrored; the next mirror op clears it.
    open_mirror: Option<u16>,
}

impl ConfigGen {
    /// `ports` access ports with seeded VLANs, ids `1..=ports`.
    pub fn new(seed: u64, ports: usize) -> ConfigGen {
        let mut rng = Rng::new(seed);
        let ports = (1..=ports as u16)
            .map(|id| PortConfig::access(id, VLAN_BASE + rng.below(VLANS as u64) as u16))
            .collect();
        ConfigGen {
            rng,
            ports,
            open_trunk: None,
            open_mirror: None,
        }
    }

    /// The modelled port table.
    pub fn ports(&self) -> &[PortConfig] {
        &self.ports
    }

    /// The preload as bulk insert transactions of `batch` rows each.
    pub fn preload(&self, batch: usize) -> Vec<Json> {
        self.ports
            .chunks(batch)
            .map(|chunk| {
                Json::Array(
                    chunk
                        .iter()
                        .map(|p| {
                            let Mode::Access(tag) = p.mode else {
                                unreachable!("preloaded ports are access ports")
                            };
                            json!({"op": "insert", "table": "Port", "row": access_row(p.id, tag)})
                        })
                        .collect(),
                )
            })
            .collect()
    }

    fn slot(&mut self, port: u16) -> &mut PortConfig {
        &mut self.ports[port as usize - 1]
    }

    /// A uniformly chosen plain access port (not the open trunk, not
    /// the open mirror) and its VLAN.
    fn plain_port(&mut self) -> (u16, u16) {
        loop {
            let p = &self.ports[self.rng.below(self.ports.len() as u64) as usize];
            if let (Mode::Access(tag), None) = (&p.mode, p.mirror) {
                return (p.id, *tag);
            }
        }
    }

    fn other_vlan(&mut self, than: u16) -> u16 {
        let step = 1 + self.rng.below(VLANS as u64 - 1) as u16;
        VLAN_BASE + (than - VLAN_BASE + step) % VLANS
    }

    /// A VLAN move of a plain access port.
    pub fn next_tag(&mut self) -> ConfigOp {
        let (port, old) = self.plain_port();
        let tag = self.other_vlan(old);
        self.slot(port).mode = Mode::Access(tag);
        ConfigOp::Tag { port, old, tag }
    }

    /// `n` VLAN moves on `n` distinct ports (one open-loop burst).
    pub fn next_burst(&mut self, n: usize) -> Vec<ConfigOp> {
        let mut ops: Vec<ConfigOp> = Vec::with_capacity(n);
        while ops.len() < n {
            let (port, old) = self.plain_port();
            if ops.iter().any(|o| o.port() == port) {
                continue;
            }
            let tag = self.other_vlan(old);
            self.slot(port).mode = Mode::Access(tag);
            ops.push(ConfigOp::Tag { port, old, tag });
        }
        ops
    }

    /// The port-flap mix: 60 % VLAN move, 20 % mirror set/clear, 10 %
    /// access/trunk flip, 10 % remove and re-add.
    pub fn next_flap(&mut self) -> ConfigOp {
        match self.rng.below(10) {
            0..=5 => self.next_tag(),
            6 | 7 => match self.open_mirror.take() {
                Some(port) => {
                    self.slot(port).mirror = None;
                    ConfigOp::Mirror { port, dst: None }
                }
                None => {
                    let (port, _) = self.plain_port();
                    let dst = 1 + self.rng.below(self.ports.len() as u64) as u16;
                    self.slot(port).mirror = Some(dst);
                    self.open_mirror = Some(port);
                    ConfigOp::Mirror {
                        port,
                        dst: Some(dst),
                    }
                }
            },
            8 => match self.open_trunk.take() {
                Some((port, [tag, extra])) => {
                    self.slot(port).mode = Mode::Access(tag);
                    ConfigOp::ToAccess { port, tag, extra }
                }
                None => {
                    let (port, tag) = self.plain_port();
                    let vlans = [tag, self.other_vlan(tag)];
                    // Sorted, as the database stores sets.
                    let mut carried = vlans.to_vec();
                    carried.sort_unstable();
                    self.slot(port).mode = Mode::Trunk(carried);
                    self.open_trunk = Some((port, vlans));
                    ConfigOp::ToTrunk { port, vlans }
                }
            },
            _ => {
                let (port, old) = self.plain_port();
                let tag = self.other_vlan(old);
                self.slot(port).mode = Mode::Access(tag);
                ConfigOp::Readd { port, old, tag }
            }
        }
    }
}

/// A host seen behind a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Station {
    pub switch: usize,
    pub learned: LearnedMac,
}

impl Station {
    pub fn subject(&self) -> Subject {
        mac_subject(self.learned.mac)
    }

    fn entry(&self, installed: bool) -> Witness {
        Witness {
            switch: self.switch,
            cond: Cond::Entry {
                table: "MacLearned",
                key: (self.learned.vlan as u128, self.learned.mac as u128),
                params: installed.then(|| vec![self.learned.port as u128]),
            },
        }
    }
}

/// One MAC-learning step: a new host speaks, the oldest one ages out.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnOp {
    pub station: Station,
    /// Destination of the learning frame: a live host on the same
    /// switch and VLAN (so the frame is forwarded, not flooded), or
    /// `None` to broadcast when there is none yet.
    pub peer: Option<u64>,
    /// The host that ages out to keep the live set at its cap.
    pub aged: Option<Station>,
}

impl LearnOp {
    pub fn witnesses(&self) -> Vec<Witness> {
        let mut w = vec![self.station.entry(true)];
        w.extend(self.aged.map(|a| a.entry(false)));
        w
    }
}

/// A unicast frame between two live hosts of one switch and VLAN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardCheck {
    pub from: Station,
    pub to: Station,
}

/// The bench's live-MAC model plus the generator of learning steps.
#[derive(Debug, Clone)]
pub struct MacGen {
    rng: Rng,
    cap: usize,
    next_mac: u64,
    /// Oldest first.
    live: VecDeque<Station>,
    /// Live MACs per (switch, VLAN).
    segments: HashMap<(usize, u16), Vec<Station>>,
    /// Access ports per VLAN, sorted, as of the last [`MacGen::rebase`].
    ports_by_vlan: Vec<(u16, Vec<u16>)>,
    /// The access VLAN of port id `i + 1` (`None` for trunks).
    vlan_of_port: Vec<Option<u16>>,
}

impl MacGen {
    /// A generator over the access ports of `ports`, keeping at most
    /// `cap` MACs live.
    pub fn new(seed: u64, ports: &[PortConfig], cap: usize) -> MacGen {
        let mut gen = MacGen {
            // Decorrelate from the ConfigGen stream of the same seed.
            rng: Rng::new(seed ^ 0x6d61_635f_6c65_6172),
            cap,
            next_mac: 0x0200_0000_0000,
            live: VecDeque::new(),
            segments: HashMap::new(),
            ports_by_vlan: Vec::new(),
            vlan_of_port: Vec::new(),
        };
        gen.rebase(ports);
        gen
    }

    /// Adopt the current port table: new hosts appear on its access
    /// ports, and hosts whose port has left their VLAN stop being
    /// forwarding-check candidates.
    pub fn rebase(&mut self, ports: &[PortConfig]) {
        let mut by_vlan: HashMap<u16, Vec<u16>> = HashMap::new();
        self.vlan_of_port = ports
            .iter()
            .map(|p| match p.mode {
                Mode::Access(tag) => {
                    by_vlan.entry(tag).or_default().push(p.id);
                    Some(tag)
                }
                Mode::Trunk(_) => None,
            })
            .collect();
        self.ports_by_vlan = by_vlan.into_iter().collect();
        self.ports_by_vlan.sort();
    }

    /// The live MACs of one switch, for verification.
    pub fn live_on(&self, switch: usize) -> Vec<LearnedMac> {
        self.live
            .iter()
            .filter(|s| s.switch == switch)
            .map(|s| s.learned)
            .collect()
    }

    #[cfg(test)]
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    fn add(&mut self, station: Station) {
        self.live.push_back(station);
        self.segments
            .entry((station.switch, station.learned.vlan))
            .or_default()
            .push(station);
    }

    fn age_oldest(&mut self) -> Option<Station> {
        let old = self.live.pop_front()?;
        let seg = self
            .segments
            .get_mut(&(old.switch, old.learned.vlan))
            .expect("live station has a segment");
        seg.retain(|s| s.learned.mac != old.learned.mac);
        Some(old)
    }

    /// Whether the station's port still belongs to its VLAN.
    fn reachable(&self, s: &Station) -> bool {
        self.vlan_of_port[s.learned.port as usize - 1] == Some(s.learned.vlan)
    }

    fn learn_at(&mut self, switch: usize, vlan: u16, port: u16) -> LearnOp {
        let station = Station {
            switch,
            learned: LearnedMac {
                port,
                mac: self.next_mac,
                vlan,
            },
        };
        self.next_mac += 1;
        let peer = self.segments.get(&(switch, vlan)).and_then(|seg| {
            (!seg.is_empty()).then(|| seg[self.rng.below(seg.len() as u64) as usize].learned.mac)
        });
        let aged = (self.live.len() >= self.cap)
            .then(|| self.age_oldest())
            .flatten();
        // The peer may be the host that just aged out; its entry is
        // retracted only after the learning frame was sent.
        self.add(station);
        LearnOp {
            station,
            peer,
            aged,
        }
    }

    fn pick_vlan(&mut self) -> usize {
        self.rng.below(self.ports_by_vlan.len() as u64) as usize
    }

    fn pick_port(&mut self, v: usize, except: Option<u16>) -> u16 {
        let ports = &self.ports_by_vlan[v].1;
        let i = self.rng.below(ports.len() as u64) as usize;
        match except {
            Some(p) if ports[i] == p => ports[(i + 1) % ports.len()],
            _ => ports[i],
        }
    }

    /// The next host to appear, on a uniformly chosen switch, VLAN and
    /// access port of that VLAN.
    pub fn next_learn(&mut self) -> LearnOp {
        let switch = self.rng.below(SWITCHES as u64) as usize;
        let v = self.pick_vlan();
        let port = self.pick_port(v, None);
        self.learn_at(switch, self.ports_by_vlan[v].0, port)
    }

    /// Two hosts appearing on one switch and VLAN, on different ports
    /// where the VLAN has two: a pair a frame can be forwarded between.
    pub fn next_learn_pair(&mut self) -> (LearnOp, LearnOp) {
        let switch = self.rng.below(SWITCHES as u64) as usize;
        let v = self.pick_vlan();
        let vlan = self.ports_by_vlan[v].0;
        let first = self.pick_port(v, None);
        let second = self.pick_port(v, Some(first));
        (
            self.learn_at(switch, vlan, first),
            self.learn_at(switch, vlan, second),
        )
    }

    /// Two live, still reachable hosts on different ports of one switch
    /// and VLAN, if a few random draws find such a pair.
    pub fn next_forward(&mut self) -> Option<ForwardCheck> {
        for _ in 0..16 {
            let from = self.live[self.rng.below(self.live.len() as u64) as usize];
            if !self.reachable(&from) {
                continue;
            }
            let seg = &self.segments[&(from.switch, from.learned.vlan)];
            let start = self.rng.below(seg.len() as u64) as usize;
            let to = (0..seg.len())
                .map(|i| seg[(start + i) % seg.len()])
                .find(|s| s.learned.port != from.learned.port && self.reachable(s));
            if let Some(to) = to {
                return Some(ForwardCheck { from, to });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams() {
        let run = |seed| {
            let mut g = ConfigGen::new(seed, 200);
            let flaps: Vec<ConfigOp> = (0..300).map(|_| g.next_flap()).collect();
            let burst = g.next_burst(30);
            let mut m = MacGen::new(seed, g.ports(), 50);
            let learns: Vec<LearnOp> = (0..120).map(|_| m.next_learn()).collect();
            (flaps, burst, learns, g.preload(64))
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn flap_mix_is_stationary_and_every_op_changes_something() {
        let mut g = ConfigGen::new(3, 500);
        let mut kinds = [0usize; 5];
        for _ in 0..5000 {
            let before = g.ports().to_vec();
            let op = g.next_flap();
            assert_ne!(before, g.ports(), "{op:?} left the model unchanged");
            kinds[match op {
                ConfigOp::Tag { .. } => 0,
                ConfigOp::Mirror { .. } => 1,
                ConfigOp::ToTrunk { .. } => 2,
                ConfigOp::ToAccess { .. } => 3,
                ConfigOp::Readd { .. } => 4,
            }] += 1;
            let trunks = g
                .ports()
                .iter()
                .filter(|p| matches!(p.mode, Mode::Trunk(_)))
                .count();
            let mirrors = g.ports().iter().filter(|p| p.mirror.is_some()).count();
            assert!(trunks <= 1 && mirrors <= 1);
        }
        assert!((2800..3200).contains(&kinds[0]), "{kinds:?}");
        assert!((900..1100).contains(&kinds[1]), "{kinds:?}");
        assert!((400..600).contains(&(kinds[2] + kinds[3])), "{kinds:?}");
        assert!((400..600).contains(&kinds[4]), "{kinds:?}");
    }

    #[test]
    fn burst_ports_are_distinct() {
        let mut g = ConfigGen::new(1, 100);
        let burst = g.next_burst(30);
        let mut ports: Vec<u16> = burst.iter().map(ConfigOp::port).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 30);
    }

    #[test]
    fn live_macs_stay_capped() {
        let g = ConfigGen::new(5, 400);
        let mut m = MacGen::new(5, g.ports(), 100);
        let first = m.next_learn();
        assert_eq!(first.peer, None);
        assert_eq!(first.aged, None);
        for i in 1..1000 {
            let op = m.next_learn();
            assert_eq!(op.aged.is_some(), i >= 100);
            assert!(m.live_len() <= 100);
        }
        let total: usize = (0..SWITCHES).map(|s| m.live_on(s).len()).sum();
        assert_eq!(total, 100);
        let check = m.next_forward().expect("some segment has two hosts");
        assert_eq!(check.from.switch, check.to.switch);
        assert_eq!(check.from.learned.vlan, check.to.learned.vlan);
        assert_ne!(check.from.learned.port, check.to.learned.port);

        let (a, b) = m.next_learn_pair();
        assert_eq!(
            (a.station.switch, a.station.learned.vlan),
            (b.station.switch, b.station.learned.vlan)
        );
        assert_ne!(a.station.learned.port, b.station.learned.port);
        // The first of the pair is already there to talk to.
        assert!(b.peer.is_some());
    }

    #[test]
    fn hosts_on_moved_ports_are_not_forwarding_candidates() {
        let mut g = ConfigGen::new(9, 40);
        let mut m = MacGen::new(9, g.ports(), 400);
        for _ in 0..400 {
            m.next_learn();
        }
        // Move every port to another VLAN: nobody is reachable now.
        let moved: Vec<PortConfig> = g
            .ports()
            .iter()
            .map(|p| PortConfig::access(p.id, g.clone().other_vlan(p.vlans()[0])))
            .collect();
        m.rebase(&moved);
        assert_eq!(m.next_forward(), None);
        m.rebase(g.ports());
        assert!(m.next_forward().is_some());
        let _ = g.next_tag();
    }
}
