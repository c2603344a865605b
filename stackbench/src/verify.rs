//! End-of-run verification: every switch must hold exactly what the
//! full-recompute baseline derives from the final database and the
//! bench's live-MAC model.

use std::collections::HashSet;

use baselines::fullrecompute::McastGroups;
use baselines::model::{LearnedMac, Mode, PortConfig};
use baselines::FullRecompute;
use ovsdb::{Atom, Database, Datum, RowData};
use p4sim::runtime::TableEntry;
use p4sim::service::SwitchDevice;

fn ints(row: &RowData, column: &str) -> Vec<u16> {
    match row.get(column) {
        Some(Datum::Set(atoms)) => atoms
            .iter()
            .filter_map(|a| match a {
                Atom::Integer(i) => u16::try_from(*i).ok(),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// The `Port` table of the final database as the baseline's model.
pub fn ports_of(db: &Database) -> Result<Vec<PortConfig>, String> {
    let mut ports = Vec::with_capacity(db.table_len("Port"));
    for (uuid, row) in db.rows("Port") {
        let id = *ints(row, "id")
            .first()
            .ok_or_else(|| format!("Port row {uuid} has no id"))?;
        let trunk = matches!(
            row.get("vlan_mode").and_then(Datum::as_scalar),
            Some(Atom::String(m)) if m == "trunk"
        );
        let mode = if trunk {
            Mode::Trunk(ints(row, "trunks"))
        } else {
            match ints(row, "tag").first() {
                Some(tag) => Mode::Access(*tag),
                // An access port without a tag belongs to no VLAN.
                None => Mode::Trunk(Vec::new()),
            }
        };
        ports.push(PortConfig {
            id,
            mode,
            mirror: ints(row, "mirror_dst").first().copied(),
        });
    }
    ports.sort_by_key(|p| p.id);
    Ok(ports)
}

/// What one switch should hold.
pub struct Desired {
    entries: HashSet<TableEntry>,
    groups: McastGroups,
}

impl Desired {
    pub fn of(ports: &[PortConfig], macs: &[LearnedMac]) -> Desired {
        let (entries, groups) = FullRecompute::desired_state(ports, macs);
        Desired { entries, groups }
    }

    /// Compare against the device's tables and multicast groups; the
    /// error names the first few differences.
    pub fn check(&self, switch: usize, device: &SwitchDevice) -> Result<(), String> {
        let actual: HashSet<TableEntry> = device
            .read_all_tables()
            .into_iter()
            .flat_map(|(_, entries)| entries)
            .collect();
        let missing: Vec<&TableEntry> = self.entries.difference(&actual).take(3).collect();
        let extra: Vec<&TableEntry> = actual.difference(&self.entries).take(3).collect();
        if !missing.is_empty() || !extra.is_empty() {
            return Err(format!(
                "switch {switch}: {} entries installed, {} desired; missing {missing:?}, extra {extra:?}",
                actual.len(),
                self.entries.len()
            ));
        }
        let groups = device.mcast_snapshot();
        if groups != self.groups {
            let bad = self
                .groups
                .iter()
                .find(|(g, members)| groups.get(g) != Some(members))
                .map(|(g, _)| *g)
                .or_else(|| {
                    groups
                        .keys()
                        .find(|g| !self.groups.contains_key(g))
                        .copied()
                });
            return Err(format!(
                "switch {switch}: multicast groups differ, first at group {bad:?}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4sim::runtime::{FieldMatch, Update, WriteOp};
    use p4sim::Switch;

    fn device_holding(ports: &[PortConfig], macs: &[LearnedMac]) -> SwitchDevice {
        let p4 = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
        let device = SwitchDevice::new(Switch::new(p4));
        let (entries, groups) = FullRecompute::desired_state(ports, macs);
        let updates: Vec<Update> = entries
            .into_iter()
            .map(|entry| Update {
                op: WriteOp::Insert,
                entry,
            })
            .collect();
        device.write(&updates).unwrap();
        for (g, members) in groups {
            device.set_mcast_group(g, members.into_iter().collect());
        }
        device
    }

    #[test]
    fn the_check_can_fail() {
        let ports = vec![
            PortConfig::access(1, 10),
            PortConfig::trunk(2, vec![10, 11]),
        ];
        let macs = vec![LearnedMac {
            port: 1,
            mac: 0xAA,
            vlan: 10,
        }];
        let device = device_holding(&ports, &macs);
        Desired::of(&ports, &macs).check(0, &device).unwrap();

        // A deliberately wrong expectation: port 1 on another VLAN.
        let wrong = vec![PortConfig::access(1, 11), ports[1].clone()];
        let err = Desired::of(&wrong, &macs).check(0, &device).unwrap_err();
        assert!(err.contains("missing"), "{err}");

        // A stale MAC the model no longer holds is an extra entry.
        let err = Desired::of(&ports, &[]).check(0, &device).unwrap_err();
        assert!(err.contains("extra [TableEntry"), "{err}");

        // Same entries, one flood group short.
        device.set_mcast_group(11, vec![]);
        let err = Desired::of(&ports, &macs).check(0, &device).unwrap_err();
        assert!(err.contains("group Some(11)"), "{err}");

        // And a device missing one entry.
        let device = device_holding(&ports, &macs);
        device
            .write(&[Update {
                op: WriteOp::Delete,
                entry: TableEntry {
                    table: "OutVlan".into(),
                    matches: vec![FieldMatch::Exact { value: 2 }],
                    priority: 0,
                    action: "mark_tagged".into(),
                    params: vec![],
                },
            }])
            .unwrap();
        assert!(Desired::of(&ports, &macs).check(0, &device).is_err());
    }

    #[test]
    fn database_rows_become_the_model() {
        let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
        let mut db = Database::new(schema);
        let (reply, _) = db.transact(&serde_json::json!([
            {"op": "insert", "table": "Port",
             "row": {"id": 2, "vlan_mode": "trunk", "trunks": ["set", [10, 11]]}},
            {"op": "insert", "table": "Port",
             "row": {"id": 1, "vlan_mode": "access", "tag": 10, "mirror_dst": 2}}
        ]));
        assert!(reply[0].get("error").is_none(), "{reply}");
        let mut mirrored = PortConfig::access(1, 10);
        mirrored.mirror = Some(2);
        assert_eq!(
            ports_of(&db).unwrap(),
            vec![mirrored, PortConfig::trunk(2, vec![10, 11])]
        );
    }
}
