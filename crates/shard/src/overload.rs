//! Overload policy and the bounded, coalescing writer-job queue.
//!
//! Two producer-side disciplines, chosen per queue:
//!
//! * **shard inputs** (monitor slices, row changes, digests) carry
//!   *deltas* — dropping one loses information — so the input queue is
//!   a bounded channel with **block-with-deadline** semantics: a full
//!   queue applies backpressure to the committer for up to
//!   [`OverloadPolicy::enqueue_deadline`], then the send is *shed* and
//!   surfaced as an error (the caller decides whether to retry or
//!   resync).
//! * **writer jobs** describe *desired state* — only the latest
//!   matters — so the write queue **coalesces**: a switch has at most
//!   one open `Push` job, and a new push for that switch merges into it
//!   through [`SwitchPush::merge`] (updates append, a group's later
//!   snapshot wins), its trace ids joining the job's. The open job is
//!   the switch's latest queued job, so every trace it carries settles
//!   after every call queued for that switch before the trace was
//!   pushed. Barrier jobs (`ReadAll`, `Replace`, `Flush`) close every
//!   open job so reads stay ordered after the writes that precede them.
//!   Under a flood targeting one switch the queue therefore holds
//!   O(switches) jobs, not O(commits).
//!
//! The queue also carries the writer **generation**: the watchdog bumps
//! it to supersede a writer thread stuck in a device push. A superseded
//! writer observes the bump on its next queue interaction and exits
//! without applying effects; its replacement drains the same queue, so
//! no enqueued job is lost.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crossbeam_channel::Sender;
use nerpa::controller::{DataPlane, SwitchPush};
use p4sim::runtime::TableEntry;

/// What `read_all_tables` returns through the writer queue.
pub type TableDump = Result<Vec<(String, Vec<TableEntry>)>, String>;

/// Queue bounds and deadlines for one [`crate::ShardRuntime`]. The
/// defaults are sized for production-ish workloads; tests shrink them
/// to force the overload paths deterministically.
#[derive(Debug, Clone)]
pub struct OverloadPolicy {
    /// Max pending inputs per shard worker queue.
    pub input_queue_cap: usize,
    /// Max pending jobs per shard writer queue (after coalescing).
    pub write_queue_cap: usize,
    /// How long a producer may block on a full queue before the send
    /// is shed and surfaced as an error.
    pub enqueue_deadline: Duration,
    /// How long one device push may run before the writer watchdog
    /// declares it stuck, supersedes the writer thread, and respawns.
    pub push_deadline: Duration,
    /// Watchdog poll interval.
    pub watchdog_poll: Duration,
}

impl Default for OverloadPolicy {
    fn default() -> OverloadPolicy {
        OverloadPolicy {
            input_queue_cap: 1024,
            write_queue_cap: 256,
            enqueue_deadline: Duration::from_secs(2),
            push_deadline: Duration::from_secs(5),
            watchdog_poll: Duration::from_millis(50),
        }
    }
}

/// One unit of work for a shard writer.
pub enum WriteJob {
    /// Apply one switch's (possibly merged) share of one or more changes.
    Push {
        /// Global switch id.
        switch_id: usize,
        /// Groups and table batch (merged into by coalescing).
        push: SwitchPush,
        /// The changes this job settles when the device acknowledges it.
        traces: Vec<u64>,
    },
    /// Read back every table (barrier: ordered after queued writes).
    ReadAll {
        /// Global switch id.
        switch_id: usize,
        /// Where to send the dump.
        reply: Sender<TableDump>,
    },
    /// Swap the real data plane behind `switch_id` (switch reconnect).
    /// Barrier; also clears the switch's poisoned state.
    Replace {
        /// Global switch id.
        switch_id: usize,
        /// The replacement device handle.
        dp: Box<dyn DataPlane>,
    },
    /// Drain marker (barrier): reply once the writer reaches it.
    Flush(Sender<()>),
}

impl std::fmt::Debug for WriteJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteJob::Push {
                switch_id, push, ..
            } => write!(
                f,
                "Push{{switch:{switch_id}, groups:{}, updates:{}}}",
                push.groups.len(),
                push.updates.len()
            ),
            WriteJob::ReadAll { switch_id, .. } => write!(f, "ReadAll{{switch:{switch_id}}}"),
            WriteJob::Replace { switch_id, .. } => write!(f, "Replace{{switch:{switch_id}}}"),
            WriteJob::Flush(_) => f.write_str("Flush"),
        }
    }
}

impl std::fmt::Debug for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Timeout(job) => write!(f, "Timeout({job:?})"),
            PushError::Closed(job) => write!(f, "Closed({job:?})"),
        }
    }
}

/// How a [`WriteQueue::push`] landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pushed {
    /// Appended as a new job.
    Queued,
    /// Merged into the switch's open `Push` job; queue depth unchanged.
    Coalesced,
}

/// Why a [`WriteQueue::push`] failed; carries the unpushed job.
pub enum PushError {
    /// The queue stayed full past the enqueue deadline.
    Timeout(WriteJob),
    /// The queue is closed (runtime shutting down).
    Closed(WriteJob),
}

/// What [`WriteQueue::pop`] observed.
pub enum Popped {
    /// A job to execute.
    Job(WriteJob),
    /// The caller's generation was superseded by the watchdog: exit
    /// without touching shared state.
    Superseded,
    /// Queue closed and drained: exit cleanly.
    Closed,
}

struct QueueState {
    jobs: VecDeque<WriteJob>,
    /// Absolute sequence number of `jobs.front()`; a job's stable
    /// handle is `base + index`, immune to `pop_front` shifts.
    base: u64,
    /// Open (coalescible) `Push` job per switch: switch id → absolute
    /// sequence. Popping a job or queueing a barrier closes it, so an
    /// open job is always queued and is its switch's latest job.
    open: BTreeMap<usize, u64>,
    /// The current writer generation; pops from older generations
    /// return [`Popped::Superseded`].
    generation: u64,
    closed: bool,
}

/// The bounded, coalescing MPSC job queue between a shard's worker and
/// its (current) writer thread. Clonable handle; all clones share one
/// queue.
#[derive(Clone)]
pub struct WriteQueue {
    inner: Arc<QueueInner>,
}

struct QueueInner {
    state: Mutex<QueueState>,
    cap: usize,
    /// Signalled on push and close: wakes the writer.
    pop_cond: Condvar,
    /// Signalled on pop and close: wakes producers blocked on a full
    /// queue.
    push_cond: Condvar,
}

impl WriteQueue {
    /// An empty queue holding at most `cap` jobs (post-coalescing).
    pub fn new(cap: usize) -> WriteQueue {
        WriteQueue {
            inner: Arc::new(QueueInner {
                state: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    base: 0,
                    open: BTreeMap::new(),
                    generation: 0,
                    closed: false,
                }),
                cap: cap.max(1),
                pop_cond: Condvar::new(),
                push_cond: Condvar::new(),
            }),
        }
    }

    /// Enqueue a job, coalescing where the job kind allows it. On a
    /// full queue, blocks until space frees or `deadline` passes
    /// (`None` = wait forever).
    pub fn push(&self, mut job: WriteJob, deadline: Option<Duration>) -> Result<Pushed, PushError> {
        let give_up = deadline.map(|d| Instant::now() + d);
        let mut st = self.inner.state.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed(job));
        }

        // Coalesce into the switch's open job if one is still queued.
        if let WriteJob::Push {
            switch_id,
            push,
            traces,
        } = &mut job
        {
            if let Some(&seq) = st.open.get(switch_id) {
                let idx = (seq - st.base) as usize;
                if let Some(WriteJob::Push {
                    push: into,
                    traces: settles,
                    ..
                }) = st.jobs.get_mut(idx)
                {
                    into.merge(std::mem::take(push));
                    settles.append(traces);
                    return Ok(Pushed::Coalesced);
                }
            }
        }

        // Need a fresh slot: wait for space.
        while st.jobs.len() >= self.inner.cap {
            if st.closed {
                return Err(PushError::Closed(job));
            }
            match give_up {
                None => st = self.inner.push_cond.wait(st).unwrap(),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        return Err(PushError::Timeout(job));
                    }
                    let (guard, _) = self.inner.push_cond.wait_timeout(st, at - now).unwrap();
                    st = guard;
                }
            }
        }
        if st.closed {
            return Err(PushError::Closed(job));
        }

        let seq = st.base + st.jobs.len() as u64;
        match &job {
            WriteJob::Push { switch_id, .. } => {
                st.open.insert(*switch_id, seq);
            }
            // Reads and swaps must stay ordered after every write queued
            // before them: a barrier closes every open job.
            _ => st.open.clear(),
        }
        st.jobs.push_back(job);
        self.inner.pop_cond.notify_all();
        Ok(Pushed::Queued)
    }

    /// Dequeue the next job for a writer of generation `my_gen`. Blocks
    /// while the queue is empty; returns [`Popped::Superseded`] as soon
    /// as the watchdog has bumped past `my_gen`.
    pub fn pop(&self, my_gen: u64) -> Popped {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if st.generation != my_gen {
                return Popped::Superseded;
            }
            if let Some(job) = st.jobs.pop_front() {
                let seq = st.base;
                st.base += 1;
                // The popped job is in flight now: later pushes must
                // not merge into it.
                if let WriteJob::Push { switch_id, .. } = &job {
                    if st.open.get(switch_id) == Some(&seq) {
                        st.open.remove(switch_id);
                    }
                }
                self.inner.push_cond.notify_all();
                return Popped::Job(job);
            }
            if st.closed {
                return Popped::Closed;
            }
            // Bounded wait so a supersede is noticed promptly even if
            // its notify raced our sleep.
            let (guard, _) = self
                .inner
                .pop_cond
                .wait_timeout(st, Duration::from_millis(100))
                .unwrap();
            st = guard;
        }
    }

    /// Bump the generation past `expected`, superseding its writer.
    /// Returns the new generation, or `None` if another supersede (or
    /// none-matching generation) got there first.
    pub fn supersede(&self, expected: u64) -> Option<u64> {
        let mut st = self.inner.state.lock().unwrap();
        if st.generation != expected {
            return None;
        }
        st.generation += 1;
        self.inner.pop_cond.notify_all();
        self.inner.push_cond.notify_all();
        Some(st.generation)
    }

    /// The current writer generation.
    pub fn generation(&self) -> u64 {
        self.inner.state.lock().unwrap().generation
    }

    /// Close the queue: producers fail fast, the writer drains what is
    /// left and exits.
    pub fn close(&self) {
        let mut st = self.inner.state.lock().unwrap();
        st.closed = true;
        self.inner.pop_cond.notify_all();
        self.inner.push_cond.notify_all();
    }

    /// Jobs currently queued (post-coalescing).
    pub fn len(&self) -> usize {
        self.inner.state.lock().unwrap().jobs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4sim::runtime::{FieldMatch, Update, WriteOp};

    fn upd(table: &str, key: u128) -> Update {
        Update {
            op: WriteOp::Insert,
            entry: TableEntry {
                table: table.to_string(),
                matches: vec![FieldMatch::Exact { value: key }],
                priority: 0,
                action: "a".to_string(),
                params: vec![],
            },
        }
    }

    fn write(switch: usize, key: u128, trace: u64) -> WriteJob {
        WriteJob::Push {
            switch_id: switch,
            push: SwitchPush {
                updates: vec![upd("t", key)],
                ..SwitchPush::default()
            },
            traces: vec![trace],
        }
    }

    fn popped_push(q: &WriteQueue) -> (usize, SwitchPush, Vec<u64>) {
        let Popped::Job(WriteJob::Push {
            switch_id,
            push,
            traces,
        }) = q.pop(0)
        else {
            panic!("expected a push job");
        };
        (switch_id, push, traces)
    }

    #[test]
    fn writes_coalesce_per_switch() {
        let q = WriteQueue::new(8);
        assert_eq!(q.push(write(1, 1, 101), None).ok(), Some(Pushed::Queued));
        assert_eq!(q.push(write(2, 2, 102), None).ok(), Some(Pushed::Queued));
        assert_eq!(q.push(write(1, 3, 103), None).ok(), Some(Pushed::Coalesced));
        assert_eq!(q.len(), 2);
        let (switch_id, push, traces) = popped_push(&q);
        assert_eq!(switch_id, 1);
        assert_eq!(push.updates, vec![upd("t", 1), upd("t", 3)]);
        assert_eq!(traces, vec![101, 103]);
        // The in-flight job is closed: a new push for switch 1 queues.
        assert_eq!(q.push(write(1, 4, 104), None).ok(), Some(Pushed::Queued));
        assert_eq!(q.len(), 2);
    }

    fn mcast(switch: usize, group: u16, ports: Vec<u16>) -> WriteJob {
        WriteJob::Push {
            switch_id: switch,
            push: SwitchPush {
                groups: [(group, ports)].into(),
                ..SwitchPush::default()
            },
            traces: Vec::new(),
        }
    }

    #[test]
    fn barriers_close_coalesce_points_and_mcast_is_last_wins() {
        let q = WriteQueue::new(8);
        q.push(write(1, 1, 0), None).unwrap();
        // Groups merge into the switch's open job; a group's later
        // snapshot replaces its earlier one.
        for ports in [vec![1, 2], vec![3]] {
            assert_eq!(
                q.push(mcast(1, 7, ports), None).ok(),
                Some(Pushed::Coalesced)
            );
        }
        let (tx, _rx) = crossbeam_channel::bounded(1);
        q.push(WriteJob::Flush(tx), None).unwrap();
        // After the barrier the switch gets a fresh job.
        assert_eq!(
            q.push(mcast(1, 7, vec![4]), None).ok(),
            Some(Pushed::Queued)
        );
        assert_eq!(q.push(write(1, 2, 0), None).ok(), Some(Pushed::Coalesced));
        assert_eq!(q.len(), 3);
        let (_, before, _) = popped_push(&q);
        assert_eq!(before.groups, [(7, vec![3])].into());
        assert_eq!(before.updates, vec![upd("t", 1)]);
        assert!(matches!(q.pop(0), Popped::Job(WriteJob::Flush(_))));
        let (_, after, _) = popped_push(&q);
        assert_eq!(after.groups, [(7, vec![4])].into());
        assert_eq!(after.updates, vec![upd("t", 2)]);
    }

    #[test]
    fn full_queue_sheds_after_deadline_but_coalesce_still_lands() {
        let q = WriteQueue::new(2);
        q.push(write(1, 1, 0), None).unwrap();
        q.push(write(2, 1, 0), None).unwrap();
        // Full for a *new* switch: shed after the deadline.
        match q.push(write(3, 1, 0), Some(Duration::from_millis(10))) {
            Err(PushError::Timeout(WriteJob::Push { switch_id, .. })) => {
                assert_eq!(switch_id, 3)
            }
            _ => panic!("expected timeout"),
        }
        // But coalescing needs no slot, so a flood at a queued switch
        // cannot grow the queue or shed.
        assert_eq!(
            q.push(write(1, 2, 0), Some(Duration::from_millis(10))).ok(),
            Some(Pushed::Coalesced)
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn supersede_ends_old_generation_and_new_one_drains() {
        let q = WriteQueue::new(4);
        q.push(write(1, 1, 0), None).unwrap();
        assert_eq!(q.generation(), 0);
        let gen1 = q.supersede(0).unwrap();
        assert_eq!(gen1, 1);
        assert!(q.supersede(0).is_none()); // raced supersede loses
        assert!(matches!(q.pop(0), Popped::Superseded));
        assert!(matches!(q.pop(gen1), Popped::Job(_)));
        q.close();
        assert!(matches!(q.pop(gen1), Popped::Closed));
        assert!(matches!(
            q.push(write(1, 2, 0), None),
            Err(PushError::Closed(_))
        ));
    }
}
