//! State-based settle detection.
//!
//! Every control connection to a switch is wrapped in a [`Tap`]. The tap
//! forwards each call to the real data plane, then folds what was
//! written into a bench-side model of that switch and checks which
//! pending operations the switch now reflects. An operation is settled
//! on a switch at the return of the first write after which the switch
//! carries the operation's value — or the value of a later operation on
//! the same subject, so batching or coalescing inside the program can
//! never strand an operation. Nothing polls: waiters block on a condvar
//! the taps signal.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nerpa::controller::DataPlane;
use p4sim::runtime::{FieldMatch, TableEntry, Update, WriteOp};

/// Nanoseconds since the process-wide bench epoch.
pub fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Microseconds from `from_ns` to `to_ns`; 0 when `to_ns` is earlier.
pub fn us_between(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e3
}

/// What a switch must hold for an operation to count as installed.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// Table entry `(table, key)` carries exactly these action params;
    /// `None` = the entry must be absent.
    Entry {
        table: &'static str,
        key: (u128, u128),
        params: Option<Vec<u128>>,
    },
    /// Multicast `group` does (or does not) contain `port`.
    Member {
        group: u16,
        port: u16,
        present: bool,
    },
}

/// One condition on one switch.
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    pub switch: usize,
    pub cond: Cond,
}

/// The two-field key of an snvs table entry (single-key tables pad 0).
fn entry_key(entry: &TableEntry) -> (u128, u128) {
    let field = |i: usize| match entry.matches.get(i) {
        Some(FieldMatch::Exact { value }) => *value,
        _ => 0,
    };
    (field(0), field(1))
}

/// What the operation is about: a port id for configuration changes, a
/// MAC for learning. Operations on one subject supersede each other.
pub type Subject = u64;

/// The subject a table entry belongs to (see [`Subject`]).
fn entry_subject(entry: &TableEntry) -> Subject {
    let (k0, k1) = entry_key(entry);
    if entry.table == "MacLearned" {
        mac_subject(k1 as u64)
    } else {
        k0 as Subject
    }
}

/// The subject of a learned MAC (disjoint from port ids).
pub fn mac_subject(mac: u64) -> Subject {
    mac | 1 << 63
}

#[derive(Default)]
struct SwitchModel {
    entries: HashMap<(String, (u128, u128)), Vec<u128>>,
    groups: HashMap<u16, BTreeSet<u16>>,
}

impl SwitchModel {
    fn holds(&self, cond: &Cond) -> bool {
        match cond {
            Cond::Entry { table, key, params } => {
                // Allocation-free lookup would need a borrowed key type;
                // pending sets are tiny, so the String is fine.
                self.entries.get(&(table.to_string(), *key)) == params.as_ref()
            }
            Cond::Member {
                group,
                port,
                present,
            } => self.groups.get(group).is_some_and(|g| g.contains(port)) == *present,
        }
    }
}

struct Pending {
    id: u64,
    subject: Subject,
    witnesses: Vec<Witness>,
    /// Settle time per witness.
    settled: Vec<Option<u64>>,
    /// When the first device write touching the subject began.
    first_write_start: Option<u64>,
}

impl Pending {
    fn done(&self) -> Option<u64> {
        self.settled
            .iter()
            .copied()
            .try_fold(0, |m, s| s.map(|t| m.max(t)))
    }

    fn done_on(&self, switch: usize) -> bool {
        self.witnesses
            .iter()
            .zip(&self.settled)
            .all(|(w, s)| w.switch != switch || s.is_some())
    }
}

#[derive(Default)]
struct State {
    switches: Vec<SwitchModel>,
    /// Unsettled operations in registration order, which is also
    /// supersession order.
    pending: Vec<Pending>,
    /// Settled operations nobody has waited for yet.
    done: HashMap<u64, Settled>,
    next_id: u64,
}

/// What all taps together wrote (kept in every run).
#[derive(Debug, Clone, Copy, Default)]
pub struct TapCounts {
    pub writes: u64,
    pub entries: u64,
}

/// One timed call through a tap (traced runs only).
#[derive(Debug, Clone, Copy)]
pub struct TapCall {
    pub kind: TapKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapKind {
    Write,
    Mcast,
    ReadAll,
}

/// What an operation's wait returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settled {
    /// When the last witness came true.
    pub at_ns: u64,
    /// When the first device write for the subject began, if one did.
    pub first_write_start_ns: Option<u64>,
}

/// The shared settle tracker: switch models, pending operations, and
/// the counters and (in traced runs) call log of every tap.
pub struct Settle {
    state: Mutex<State>,
    changed: Condvar,
    counts: Mutex<TapCounts>,
    /// Whether taps currently log their calls (traced phases only).
    tracing: AtomicBool,
    calls: Mutex<Vec<TapCall>>,
}

impl Settle {
    /// A tracker for `switches` devices.
    pub fn new(switches: usize) -> Arc<Settle> {
        Arc::new(Settle {
            state: Mutex::new(State {
                switches: (0..switches).map(|_| SwitchModel::default()).collect(),
                ..State::default()
            }),
            changed: Condvar::new(),
            counts: Mutex::new(TapCounts::default()),
            tracing: AtomicBool::new(false),
            calls: Mutex::new(Vec::new()),
        })
    }

    /// Turn the taps' call log on or off. Relaxed: the flag publishes
    /// no other data, and phases toggle it while no call is in flight.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("settle state poisoned")
    }

    /// Start watching for an operation. Must be called before the
    /// operation is issued, or a fast write could be missed. Returns
    /// `Err` when every witness already holds — the generator produced
    /// an operation that changes nothing, which would never settle.
    pub fn register(&self, subject: Subject, witnesses: Vec<Witness>) -> Result<u64, String> {
        let mut st = self.lock();
        let settled: Vec<Option<u64>> = witnesses
            .iter()
            .map(|w| st.switches[w.switch].holds(&w.cond).then(now_ns))
            .collect();
        if settled.iter().all(Option::is_some) {
            return Err(format!("operation on subject {subject} changes nothing"));
        }
        let id = st.next_id;
        st.next_id += 1;
        st.pending.push(Pending {
            id,
            subject,
            witnesses,
            settled,
            first_write_start: None,
        });
        Ok(id)
    }

    /// Block until operation `id` is settled or `deadline` passes; the
    /// operation stops being watched either way.
    pub fn wait(&self, id: u64, deadline: Instant) -> Option<Settled> {
        let mut st = self.lock();
        loop {
            if let Some(settled) = st.done.remove(&id) {
                return Some(settled);
            }
            let pos = st.pending.iter().position(|p| p.id == id)?;
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                st.pending.remove(pos);
                return None;
            }
            st = self
                .changed
                .wait_timeout(st, left)
                .expect("settle state poisoned")
                .0;
        }
    }

    /// Operations not yet settled.
    pub fn pending(&self) -> usize {
        self.lock().pending.len()
    }

    /// Forget a replaced switch's state: the new device starts empty.
    pub fn reset_switch(&self, switch: usize) {
        self.lock().switches[switch] = SwitchModel::default();
    }

    /// Counters summed over all taps.
    pub fn counts(&self) -> TapCounts {
        *self.counts.lock().expect("tap counts poisoned")
    }

    /// Drain the traced call log.
    pub fn take_calls(&self) -> Vec<TapCall> {
        std::mem::take(&mut *self.calls.lock().expect("tap calls poisoned"))
    }

    fn write_started(&self, switch: usize, updates: &[Update], at_ns: u64) {
        let mut st = self.lock();
        for p in st.pending.iter_mut() {
            if p.first_write_start.is_none()
                && p.witnesses.iter().any(|w| w.switch == switch)
                && updates.iter().any(|u| entry_subject(&u.entry) == p.subject)
            {
                p.first_write_start = Some(at_ns);
            }
        }
    }

    fn wrote(&self, switch: usize, updates: &[Update], at_ns: u64) {
        let mut st = self.lock();
        let model = &mut st.switches[switch];
        for u in updates {
            let key = (u.entry.table.clone(), entry_key(&u.entry));
            match u.op {
                WriteOp::Insert | WriteOp::Modify => {
                    model.entries.insert(key, u.entry.params.clone());
                }
                WriteOp::Delete => {
                    model.entries.remove(&key);
                }
            }
        }
        Self::recheck(&mut st, switch, at_ns);
        drop(st);
        self.changed.notify_all();
    }

    fn mcast_set(&self, switch: usize, group: u16, ports: &[u16], at_ns: u64) {
        let mut st = self.lock();
        let groups = &mut st.switches[switch].groups;
        if ports.is_empty() {
            groups.remove(&group);
        } else {
            groups.insert(group, ports.iter().copied().collect());
        }
        Self::recheck(&mut st, switch, at_ns);
        drop(st);
        self.changed.notify_all();
    }

    /// Re-evaluate every unsettled witness on `switch`, then let each
    /// operation now complete on that switch supersede the earlier
    /// operations on its subject there.
    fn recheck(st: &mut State, switch: usize, at_ns: u64) {
        let State {
            switches,
            pending,
            done,
            ..
        } = st;
        let model = &switches[switch];
        for p in pending.iter_mut() {
            for (w, s) in p.witnesses.iter().zip(p.settled.iter_mut()) {
                if w.switch == switch && s.is_none() && model.holds(&w.cond) {
                    *s = Some(at_ns);
                }
            }
        }
        for later in (1..pending.len()).rev() {
            if !pending[later].done_on(switch) {
                continue;
            }
            let subject = pending[later].subject;
            for earlier in pending[..later].iter_mut() {
                if earlier.subject != subject {
                    continue;
                }
                for (w, s) in earlier.witnesses.iter().zip(earlier.settled.iter_mut()) {
                    if w.switch == switch && s.is_none() {
                        *s = Some(at_ns);
                    }
                }
            }
        }
        pending.retain(|p| match p.done() {
            Some(at_ns) => {
                done.insert(
                    p.id,
                    Settled {
                        at_ns,
                        first_write_start_ns: p.first_write_start,
                    },
                );
                false
            }
            None => true,
        });
    }
}

/// A [`DataPlane`] that forwards to the real one and reports to the
/// shared [`Settle`].
pub struct Tap {
    switch: usize,
    inner: Box<dyn DataPlane>,
    settle: Arc<Settle>,
}

impl Tap {
    pub fn new(switch: usize, inner: Box<dyn DataPlane>, settle: Arc<Settle>) -> Tap {
        Tap {
            switch,
            inner,
            settle,
        }
    }

    fn log(&self, kind: TapKind, start_ns: u64, end_ns: u64) {
        if self.settle.tracing() {
            let call = TapCall {
                kind,
                start_ns,
                end_ns,
            };
            self.settle
                .calls
                .lock()
                .expect("tap calls poisoned")
                .push(call);
        }
    }

    fn write_with(
        &self,
        updates: &[Update],
        call: impl FnOnce(&dyn DataPlane) -> Result<(), String>,
    ) -> Result<(), String> {
        let start = now_ns();
        if self.settle.tracing() {
            self.settle.write_started(self.switch, updates, start);
        }
        call(self.inner.as_ref())?;
        let end = now_ns();
        {
            let mut c = self.settle.counts.lock().expect("tap counts poisoned");
            c.writes += 1;
            c.entries += updates.len() as u64;
        }
        self.settle.wrote(self.switch, updates, end);
        self.log(TapKind::Write, start, end);
        Ok(())
    }
}

impl DataPlane for Tap {
    fn write_updates(&self, updates: &[Update]) -> Result<(), String> {
        self.write_with(updates, |dp| dp.write_updates(updates))
    }

    fn write_updates_traced(&self, updates: &[Update], trace: u64) -> Result<(), String> {
        self.write_with(updates, |dp| dp.write_updates_traced(updates, trace))
    }

    fn set_mcast_group(&self, group: u16, ports: Vec<u16>) -> Result<(), String> {
        let start = now_ns();
        self.inner.set_mcast_group(group, ports.clone())?;
        let end = now_ns();
        self.settle.mcast_set(self.switch, group, &ports, end);
        self.log(TapKind::Mcast, start, end);
        Ok(())
    }

    fn read_all_tables(&self) -> Result<Vec<(String, Vec<TableEntry>)>, String> {
        let start = now_ns();
        let tables = self.inner.read_all_tables()?;
        self.log(TapKind::ReadAll, start, now_ns());
        Ok(tables)
    }

    fn settles_inline(&self) -> bool {
        self.inner.settles_inline()
    }
}

/// How long an operation may take to settle before it counts as failed.
pub const SETTLE_TIMEOUT: Duration = Duration::from_secs(1);

#[cfg(test)]
mod tests {
    use super::*;

    /// A data plane that accepts everything.
    struct Sink;
    impl DataPlane for Sink {
        fn write_updates(&self, _: &[Update]) -> Result<(), String> {
            Ok(())
        }
        fn set_mcast_group(&self, _: u16, _: Vec<u16>) -> Result<(), String> {
            Ok(())
        }
    }

    fn invlan(port: u16, tag: u16, op: WriteOp) -> Update {
        Update {
            op,
            entry: TableEntry {
                table: "InVlan".into(),
                matches: vec![
                    FieldMatch::Exact {
                        value: port as u128,
                    },
                    FieldMatch::Exact { value: 0 },
                ],
                priority: 0,
                action: "set_port_vlan".into(),
                params: vec![tag as u128],
            },
        }
    }

    fn tag_witnesses(port: u16, tag: u16, switches: usize) -> Vec<Witness> {
        (0..switches)
            .map(|switch| Witness {
                switch,
                cond: Cond::Entry {
                    table: "InVlan",
                    key: (port as u128, 0),
                    params: Some(vec![tag as u128]),
                },
            })
            .collect()
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_millis(20)
    }

    #[test]
    fn settles_only_once_every_switch_carries_the_value() {
        let settle = Settle::new(2);
        let taps: Vec<Tap> = (0..2)
            .map(|s| Tap::new(s, Box::new(Sink), settle.clone()))
            .collect();
        let op = settle.register(7, tag_witnesses(7, 42, 2)).unwrap();
        taps[0]
            .write_updates(&[invlan(7, 42, WriteOp::Insert)])
            .unwrap();
        assert_eq!(settle.pending(), 1);
        // An unrelated write on the other switch does not settle it.
        taps[1]
            .write_updates(&[invlan(8, 42, WriteOp::Insert)])
            .unwrap();
        let before = now_ns();
        taps[1]
            .write_updates(&[invlan(7, 42, WriteOp::Insert)])
            .unwrap();
        let done = settle.wait(op, soon()).expect("settled");
        assert!(done.at_ns >= before);
        assert_eq!(settle.pending(), 0);
        assert_eq!(settle.counts().writes, 3);
    }

    #[test]
    fn later_operation_on_the_subject_supersedes_the_earlier_one() {
        // Two tag updates on port 7 in flight; the program coalesces
        // them and only ever writes the second value.
        let settle = Settle::new(1);
        let tap = Tap::new(0, Box::new(Sink), settle.clone());
        let first = settle.register(7, tag_witnesses(7, 10, 1)).unwrap();
        let second = settle.register(7, tag_witnesses(7, 11, 1)).unwrap();
        let other = settle.register(9, tag_witnesses(9, 10, 1)).unwrap();
        tap.write_updates(&[invlan(7, 11, WriteOp::Insert)])
            .unwrap();
        let a = settle.wait(first, soon()).expect("superseded op settles");
        let b = settle.wait(second, soon()).expect("second op settles");
        assert_eq!(a.at_ns, b.at_ns);
        // A different subject is untouched and times out as failed.
        assert_eq!(settle.wait(other, soon()), None);
        assert_eq!(settle.pending(), 0);
    }

    #[test]
    fn earlier_value_does_not_settle_the_later_operation() {
        let settle = Settle::new(1);
        let tap = Tap::new(0, Box::new(Sink), settle.clone());
        let first = settle.register(7, tag_witnesses(7, 10, 1)).unwrap();
        let second = settle.register(7, tag_witnesses(7, 11, 1)).unwrap();
        tap.write_updates(&[invlan(7, 10, WriteOp::Insert)])
            .unwrap();
        assert!(settle.wait(first, soon()).is_some());
        assert_eq!(settle.wait(second, soon()), None);
    }

    #[test]
    fn absence_membership_and_noop_registration() {
        let settle = Settle::new(1);
        let tap = Tap::new(0, Box::new(Sink), settle.clone());
        tap.write_updates(&[invlan(3, 10, WriteOp::Insert)])
            .unwrap();
        tap.set_mcast_group(10, vec![3, 4]).unwrap();
        // Already true: refused.
        assert!(settle.register(3, tag_witnesses(3, 10, 1)).is_err());
        let gone = settle
            .register(
                3,
                vec![
                    Witness {
                        switch: 0,
                        cond: Cond::Entry {
                            table: "InVlan",
                            key: (3, 0),
                            params: None,
                        },
                    },
                    Witness {
                        switch: 0,
                        cond: Cond::Member {
                            group: 10,
                            port: 3,
                            present: false,
                        },
                    },
                ],
            )
            .unwrap();
        tap.write_updates(&[invlan(3, 10, WriteOp::Delete)])
            .unwrap();
        assert_eq!(settle.pending(), 1);
        tap.set_mcast_group(10, vec![4]).unwrap();
        assert!(settle.wait(gone, soon()).is_some());
        // A replaced switch starts empty.
        settle.reset_switch(0);
        assert!(settle.register(4, tag_witnesses(4, 10, 1)).is_ok());
    }

    #[test]
    fn traced_taps_log_calls_and_first_write_start() {
        let settle = Settle::new(1);
        settle.set_tracing(true);
        let tap = Tap::new(0, Box::new(Sink), settle.clone());
        let op = settle.register(7, tag_witnesses(7, 42, 1)).unwrap();
        tap.write_updates(&[invlan(7, 42, WriteOp::Insert)])
            .unwrap();
        let done = settle.wait(op, soon()).unwrap();
        let started = done.first_write_start_ns.expect("write start seen");
        assert!(started <= done.at_ns);
        let calls = settle.take_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].kind, TapKind::Write);
        assert!(calls[0].end_ns >= calls[0].start_ns);
        assert!(settle.take_calls().is_empty());
    }
}
