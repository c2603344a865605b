//! Coalescing equivalence: draining a [`shard::overload::WriteQueue`]
//! applies exactly the same final device state as replaying the raw,
//! uncoalesced job stream — for any op sequence, any queue capacity,
//! and any interleaving of pushes and drains. Coalescing merges write
//! batches per switch (append, order-preserving) and multicast programs
//! per `(switch, group)` (last wins); neither may change where the
//! device ends up, only how many queue slots the journey takes.

use std::time::Duration;

use p4sim::runtime::{FieldMatch, TableEntry, Update, WriteOp};
use p4sim::{parse_p4, Switch, SwitchDevice};
use proptest::prelude::*;
use shard::overload::{Popped, PushError, Pushed, WriteJob, WriteQueue};

const SWITCHES: usize = 2;

fn mac_update(op: WriteOp, vlan: u16, mac: u64, port: u16) -> Update {
    Update {
        op,
        entry: TableEntry {
            table: "MacLearned".to_string(),
            matches: vec![
                FieldMatch::Exact {
                    value: vlan as u128,
                },
                FieldMatch::Exact { value: mac as u128 },
            ],
            priority: 0,
            action: "output".to_string(),
            params: vec![port as u128],
        },
    }
}

/// Execute one drained job against the coalesced-side device set, the
/// way a shard writer would.
fn apply(job: WriteJob, devices: &[SwitchDevice]) {
    match job {
        WriteJob::Write {
            switch_id, updates, ..
        } => devices[switch_id].write(&updates).expect("coalesced write"),
        WriteJob::Mcast {
            switch_id,
            group,
            ports,
            ..
        } => devices[switch_id].set_mcast_group(group, ports),
        WriteJob::Flush(tx) => {
            let _ = tx.send(());
        }
        other => panic!("unexpected job {other:?}"),
    }
}

fn drain_one(q: &WriteQueue, devices: &[SwitchDevice]) {
    match q.pop(0) {
        Popped::Job(job) => apply(job, devices),
        other @ (Popped::Superseded | Popped::Closed) => {
            panic!(
                "pop returned {} with jobs still queued",
                match other {
                    Popped::Superseded => "Superseded",
                    _ => "Closed",
                }
            )
        }
    }
}

fn sorted_tables(dev: &SwitchDevice) -> Vec<(String, Vec<TableEntry>)> {
    let mut tables = dev.read_all_tables();
    for (_, entries) in &mut tables {
        entries.sort();
    }
    tables
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any consistent op stream, any capacity, and any push/drain
    /// interleaving: (final tables, final mcast groups) of the device
    /// fed through the coalescing queue equal those of the device fed
    /// the raw stream directly.
    #[test]
    fn coalesced_drain_equals_raw_replay(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), 0usize..3), 1..80),
        cap in 2usize..6,
    ) {
        let program = parse_p4(snvs::assets::SNVS_P4).expect("snvs parses");
        let raw: Vec<SwitchDevice> = (0..SWITCHES)
            .map(|_| SwitchDevice::new(Switch::new(program.clone())))
            .collect();
        let coalesced: Vec<SwitchDevice> = (0..SWITCHES)
            .map(|_| SwitchDevice::new(Switch::new(program.clone())))
            .collect();
        let q = WriteQueue::new(cap);

        // Model of live MacLearned keys per switch, so generated
        // Insert/Delete streams are always valid table programs.
        let mut live: Vec<Vec<(u16, u64, u16)>> = vec![Vec::new(); SWITCHES];
        let mut fresh = 0u64;

        for &(sel, key_pick, drain) in &ops {
            let sw = (sel >> 4) as usize % SWITCHES;
            let job = match sel % 10 {
                // Insert a fresh key.
                0..=4 => {
                    fresh += 1;
                    let key = (fresh as u16 % 7, 0x1000 + fresh, fresh as u16 % 15);
                    live[sw].push(key);
                    let upd = mac_update(WriteOp::Insert, key.0, key.1, key.2);
                    raw[sw].write(std::slice::from_ref(&upd)).expect("raw insert");
                    WriteJob::Write { switch_id: sw, updates: vec![upd], traces: vec![fresh] }
                }
                // Delete a live key (falls back to insert when empty).
                5 | 6 if !live[sw].is_empty() => {
                    let idx = key_pick as usize % live[sw].len();
                    let key = live[sw].remove(idx);
                    let upd = mac_update(WriteOp::Delete, key.0, key.1, key.2);
                    raw[sw].write(std::slice::from_ref(&upd)).expect("raw delete");
                    WriteJob::Write { switch_id: sw, updates: vec![upd], traces: vec![0] }
                }
                5 | 6 => {
                    fresh += 1;
                    let key = (fresh as u16 % 7, 0x1000 + fresh, fresh as u16 % 15);
                    live[sw].push(key);
                    let upd = mac_update(WriteOp::Insert, key.0, key.1, key.2);
                    raw[sw].write(std::slice::from_ref(&upd)).expect("raw insert");
                    WriteJob::Write { switch_id: sw, updates: vec![upd], traces: vec![fresh] }
                }
                // Program (or clear: empty port set) a multicast group.
                7 | 8 => {
                    let group = key_pick % 3;
                    let ports: Vec<u16> = (0..(key_pick >> 2) % 3)
                        .map(|i| 1 + (key_pick >> (4 + i)) % 9)
                        .collect();
                    raw[sw].set_mcast_group(group, ports.clone());
                    WriteJob::Mcast { switch_id: sw, group, ports, traces: vec![] }
                }
                // Barrier: closes every open coalesce point.
                _ => {
                    let (tx, _rx) = crossbeam_channel::bounded::<()>(1);
                    WriteJob::Flush(tx)
                }
            };

            // Push, draining one job whenever a fresh slot is needed —
            // the single-threaded stand-in for writer backpressure.
            let mut job = job;
            loop {
                match q.push(job, Some(Duration::ZERO)) {
                    Ok(_) => break,
                    Err(PushError::Timeout(j)) => {
                        job = j;
                        drain_one(&q, &coalesced);
                    }
                    Err(PushError::Closed(_)) => panic!("queue closed mid-test"),
                }
            }
            prop_assert!(q.len() <= cap, "queue grew past its cap");
            for _ in 0..drain {
                if q.is_empty() {
                    break;
                }
                drain_one(&q, &coalesced);
            }
        }
        while !q.is_empty() {
            drain_one(&q, &coalesced);
        }

        for sw in 0..SWITCHES {
            prop_assert_eq!(
                sorted_tables(&raw[sw]),
                sorted_tables(&coalesced[sw]),
                "switch {} table state diverged after coalescing", sw
            );
            prop_assert_eq!(
                raw[sw].mcast_snapshot(),
                coalesced[sw].mcast_snapshot(),
                "switch {} multicast groups diverged after coalescing", sw
            );
        }
    }
}

/// A change programs a switch's groups first and its table batch last,
/// and only that last call carries the trace. When the batch's payload
/// merges into a write queued ahead of the groups, the trace must still
/// settle after them: it rides on the switch's latest queued job.
#[test]
fn merged_traces_ride_on_the_switch_latest_job() {
    let write = |key: u64, trace: u64| WriteJob::Write {
        switch_id: 1,
        updates: vec![mac_update(WriteOp::Insert, 10, key, 1)],
        traces: vec![trace],
    };
    let mcast = |ports: Vec<u16>, traces: Vec<u64>| WriteJob::Mcast {
        switch_id: 1,
        group: 7,
        ports,
        traces,
    };
    let q = WriteQueue::new(8);
    q.push(write(1, 100), None).unwrap();
    q.push(mcast(vec![1], vec![]), None).unwrap();
    assert_eq!(q.push(write(2, 101), None).ok(), Some(Pushed::Coalesced));
    // A group-only change merging into the queued group job keeps its
    // trace there (nothing was queued for the switch after it).
    assert_eq!(
        q.push(mcast(vec![2], vec![102]), None).ok(),
        Some(Pushed::Coalesced)
    );
    let Popped::Job(WriteJob::Write {
        updates, traces, ..
    }) = q.pop(0)
    else {
        panic!("expected the merged write");
    };
    assert_eq!((updates.len(), traces), (2, vec![100]));
    let Popped::Job(WriteJob::Mcast { ports, traces, .. }) = q.pop(0) else {
        panic!("expected the group job");
    };
    assert_eq!((ports, traces), (vec![2], vec![101, 102]));
}
