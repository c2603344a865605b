//! Coalescing properties of [`shard::overload::WriteQueue`], for any
//! stream of group-only, batch-only and mixed switch pushes, any queue
//! capacity, and any interleaving of pushes and drains:
//!
//! * draining the queue leaves every device where replaying the raw,
//!   uncoalesced pushes does — [`SwitchPush::merge`] appends batches and
//!   lets a group's later snapshot win, which may change how many queue
//!   slots the journey takes but never where the device ends up;
//! * a trace settles after everything queued for its switch before it:
//!   the job carrying a trace is popped after every push queued for
//!   that switch before the trace was pushed.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use nerpa::controller::{DataPlane, SwitchPush};
use p4sim::runtime::{FieldMatch, TableEntry, Update, WriteOp};
use p4sim::{parse_p4, Switch, SwitchDevice};
use proptest::prelude::*;
use shard::overload::{Popped, PushError, WriteJob, WriteQueue};

const SWITCHES: usize = 2;

/// `(selector, key pick, drains after the push)` per generated op.
type Ops = Vec<(u8, u16, usize)>;

fn ops() -> impl Strategy<Value = Ops> {
    proptest::collection::vec((any::<u8>(), any::<u16>(), 0usize..3), 1..80)
}

fn mac_update(op: WriteOp, (vlan, mac, port): (u16, u64, u16)) -> Update {
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

/// Turns generated picks into jobs. Tracks the live `MacLearned` keys
/// per switch, so every generated Insert/Delete stream is a valid table
/// program, and stamps every push with its own trace id (increasing in
/// push order).
#[derive(Default)]
struct Gen {
    live: [Vec<(u16, u64, u16)>; SWITCHES],
    fresh: u64,
    traces: u64,
}

impl Gen {
    /// A one-update batch: delete a live key, or insert a fresh one.
    fn batch(&mut self, sw: usize, pick: u16) -> Vec<Update> {
        let live = &mut self.live[sw];
        if pick.is_multiple_of(3) && !live.is_empty() {
            let key = live.remove(pick as usize % live.len());
            return vec![mac_update(WriteOp::Delete, key)];
        }
        self.fresh += 1;
        let f = self.fresh;
        let key = (f as u16 % 7, 0x1000 + f, f as u16 % 15);
        live.push(key);
        vec![mac_update(WriteOp::Insert, key)]
    }

    /// Program (or clear: empty port set) one of three groups.
    fn groups(pick: u16) -> BTreeMap<u16, Vec<u16>> {
        let ports = (0..(pick >> 2) % 3)
            .map(|i| 1 + (pick >> (4 + i)) % 9)
            .collect();
        [(pick % 3, ports)].into()
    }

    fn job(&mut self, sel: u8, pick: u16) -> WriteJob {
        let sw = (sel >> 4) as usize % SWITCHES;
        let push = match sel % 8 {
            0..=2 => SwitchPush {
                updates: self.batch(sw, pick),
                ..SwitchPush::default()
            },
            3 | 4 => SwitchPush {
                groups: Gen::groups(pick),
                ..SwitchPush::default()
            },
            5 | 6 => SwitchPush {
                groups: Gen::groups(pick),
                updates: self.batch(sw, pick),
            },
            // Barrier: closes every open job.
            _ => return WriteJob::Flush(crossbeam_channel::bounded(1).0),
        };
        self.traces += 1;
        WriteJob::Push {
            switch_id: sw,
            push,
            traces: vec![self.traces],
        }
    }
}

/// What the single-threaded writer stand-in observed.
enum Seen<'a> {
    /// A job about to be queued.
    Pushed(&'a WriteJob),
    /// A job the writer received.
    Popped(WriteJob),
}

fn pop(q: &WriteQueue, seen: &mut impl FnMut(Seen)) {
    match q.pop(0) {
        Popped::Job(job) => seen(Seen::Popped(job)),
        Popped::Superseded | Popped::Closed => panic!("pop failed with jobs still queued"),
    }
}

/// Feed `ops` through a queue of capacity `cap` the way a shard's worker
/// and writer would, single-threaded. A push that needs a fresh slot in
/// a full queue first drains one job (the stand-in for writer
/// backpressure); each op then drains up to its pick, and the rest is
/// drained at the end.
fn drive(ops: &Ops, cap: usize, mut seen: impl FnMut(Seen)) -> Result<(), TestCaseError> {
    let q = WriteQueue::new(cap);
    let mut gen = Gen::default();
    for &(sel, pick, drain) in ops {
        let mut job = gen.job(sel, pick);
        seen(Seen::Pushed(&job));
        loop {
            match q.push(job, Some(Duration::ZERO)) {
                Ok(_) => break,
                Err(PushError::Timeout(j)) => {
                    job = j;
                    pop(&q, &mut seen);
                }
                Err(PushError::Closed(_)) => panic!("queue closed mid-test"),
            }
        }
        prop_assert!(q.len() <= cap, "queue grew past its cap");
        for _ in 0..drain.min(q.len()) {
            pop(&q, &mut seen);
        }
    }
    while !q.is_empty() {
        pop(&q, &mut seen);
    }
    Ok(())
}

fn devices() -> Vec<SwitchDevice> {
    let program = parse_p4(snvs::assets::SNVS_P4).expect("snvs parses");
    (0..SWITCHES)
        .map(|_| SwitchDevice::new(Switch::new(program.clone())))
        .collect()
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

    /// (final tables, final mcast groups) of the devices fed through the
    /// coalescing queue equal those of the devices fed every push raw.
    #[test]
    fn coalesced_drain_equals_raw_replay(ops in ops(), cap in 2usize..6) {
        let raw = devices();
        let coalesced = devices();
        drive(&ops, cap, |seen| match seen {
            Seen::Pushed(WriteJob::Push { switch_id, push, .. }) => {
                raw[*switch_id].push(push, 0).expect("raw push")
            }
            Seen::Pushed(_) => {}
            Seen::Popped(WriteJob::Push { switch_id, push, .. }) => {
                coalesced[switch_id].push(&push, 0).expect("coalesced push")
            }
            Seen::Popped(WriteJob::Flush(tx)) => {
                let _ = tx.send(());
            }
            Seen::Popped(other) => panic!("unexpected job {other:?}"),
        })?;
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

    /// When a job is popped, no push queued for its switch before any
    /// trace it carries is still waiting; and every trace is popped
    /// exactly once.
    #[test]
    fn traces_settle_after_every_earlier_push_for_their_switch(
        ops in ops(),
        cap in 2usize..6,
    ) {
        // Per switch: traces pushed and not yet popped.
        let mut waiting: [BTreeSet<u64>; SWITCHES] = Default::default();
        let mut violation = None;
        drive(&ops, cap, |seen| match seen {
            Seen::Pushed(WriteJob::Push { switch_id, traces, .. }) => {
                waiting[*switch_id].extend(traces)
            }
            Seen::Popped(WriteJob::Push { switch_id, traces, .. }) => {
                let waiting = &mut waiting[switch_id];
                for t in &traces {
                    assert!(waiting.remove(t), "trace {t} popped twice");
                }
                let latest = traces.iter().max();
                if let Some(&earlier) = waiting.first().filter(|&e| Some(e) < latest) {
                    violation.get_or_insert((switch_id, latest.copied(), earlier));
                }
            }
            _ => {}
        })?;
        prop_assert_eq!(violation, None, "(switch, trace popped, earlier push still queued)");
        prop_assert!(waiting.iter().all(BTreeSet::is_empty), "a trace was never popped");
    }
}
