//! Operation executors and the phases every workload shares: bulk
//! load, the recovery drills, the probe of a traced run and the final
//! verification.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use nerpa::controller::TraceCtx;
use nerpa::convert;
use netsim::{ethertype, EthFrame, Mac, Network};
use p4sim::runtime::Digest;
use serde_json::Value as Json;

use crate::gen::{
    access_port_landed, ConfigGen, ConfigOp, ForwardCheck, LearnOp, MacGen, Station, SWITCHES,
};
use crate::settle::{now_ns, us_between, Settle, TapKind, Witness, SETTLE_TIMEOUT};
use crate::stack::{host_id, monitor_config, Plane, Stack, LOAD_BATCH, REPLY_TIMEOUT};
use crate::trace::Trace;
use crate::verify::{ports_of, Desired};

/// Rows changed behind the controller's back in each resync drill.
pub const DRILL_ROWS: usize = 100;

/// Span names of one kind of operation. Bulk-load and drill spans carry
/// a prefix so that per-layer medians never mix a 500-row batch, or the
/// burst of writes a resync causes, with a single-row change.
pub struct Names {
    pub root: &'static str,
    pub transact: &'static str,
    pub update_lag: &'static str,
    pub wait: &'static str,
    pub decode: &'static str,
    pub commit: &'static str,
    pub push: &'static str,
    pub write: &'static str,
    pub mcast: &'static str,
    pub read_all: &'static str,
}

macro_rules! names {
    ($root:literal, $prefix:literal) => {
        Names {
            root: $root,
            transact: concat!($prefix, "ovsdb.transact"),
            update_lag: concat!($prefix, "ovsdb.update_lag"),
            wait: concat!($prefix, "ovsdb.monitor_wait"),
            decode: concat!($prefix, "core.decode"),
            commit: concat!($prefix, "core.commit_to_plan"),
            push: concat!($prefix, "core.push_plan"),
            write: concat!($prefix, "p4sim.write"),
            mcast: concat!($prefix, "p4sim.mcast"),
            read_all: concat!($prefix, "p4sim.read_all"),
        }
    };
}

pub const SINGLE: Names = names!("op.config", "");
pub const LOAD: Names = names!("op.load", "load.");
const DRILL: Names = names!("op.drill", "drill.");

pub const LEARN_ROOT: &str = "op.learn";

/// The population an input of a traced run belongs to: which span
/// names it gets, and whether the shadow replay times it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Outside every traced phase: no spans, replayed for state only.
    Skip,
    /// A bulk-load transaction.
    Bulk,
    /// A single-row change or digest batch of the measured phase.
    Single,
    /// A change made behind the controller's back in a resync drill:
    /// spans under the drill's names, replayed for state only.
    Drill,
    /// A single-row change or digest batch of the probe: timed like
    /// [`Measure::Single`], but left out of the per-operation counts.
    Probe,
}

/// What the shadow replay needs to reproduce the run on idle replicas.
pub enum Replay {
    Txn {
        ops: Json,
        measure: Measure,
    },
    Digests {
        switch: usize,
        digests: Vec<Digest>,
        insert: bool,
        measure: Measure,
    },
}

/// An operation in flight.
pub struct Ticket {
    settle_id: u64,
    op: u64,
    origin_ns: u64,
    root: Option<usize>,
}

/// A finished operation.
pub struct Done {
    pub lag_us: f64,
    pub settled_ns: u64,
}

pub struct Bench {
    pub stack: Stack,
    pub cfg: ConfigGen,
    pub macs: MacGen,
    net: Network,
    ports: usize,
    /// Whether this run keeps a replay log and may trace phases.
    traced_run: bool,
    /// What the inputs issued now are measured as; spans are recorded
    /// unless it is [`Measure::Skip`].
    population: Measure,
    tracing: bool,
    pub trace: Trace,
    pub replay: Vec<Replay>,
    next_op: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub forward_checks: u64,
    /// A running fingerprint of every input handed to the stack.
    pub stream_hash: u64,
    /// Sharded traced phases: `(op, origin)` in issue order, to pair
    /// with the pump log, and `(op, first device write start)`.
    issued: Vec<(u64, u64)>,
    dispatch: Vec<(u64, u64)>,
}

fn mac_digest(s: &Station) -> Digest {
    Digest {
        name: "mac_learn_t".to_string(),
        fields: vec![
            ("port".to_string(), s.learned.port as u128),
            ("mac".to_string(), s.learned.mac as u128),
            ("vlan".to_string(), s.learned.vlan as u128),
        ],
    }
}

fn frame(dst: Mac, src: u64) -> Vec<u8> {
    EthFrame::new(dst, Mac::from_u64(src), ethertype::IPV4, vec![0u8; 46]).encode()
}

impl Bench {
    /// Build a stack (`shards` = 0 for the unsharded controller) and
    /// the generators for `ports` ports; nothing is loaded yet.
    pub fn new(
        shards: usize,
        ports: usize,
        live_macs: usize,
        seed: u64,
        traced_run: bool,
    ) -> Result<Bench, String> {
        let settle = Settle::new(SWITCHES);
        let stack = Stack::build(shards, settle)?;
        let cfg = ConfigGen::new(seed, ports);
        let macs = MacGen::new(seed, cfg.ports(), live_macs);
        let net = stack.network(ports);
        Ok(Bench {
            stack,
            cfg,
            macs,
            net,
            ports,
            traced_run,
            population: Measure::Skip,
            tracing: false,
            trace: Trace::default(),
            replay: Vec::new(),
            next_op: 1,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            forward_checks: 0,
            stream_hash: 0,
            issued: Vec::new(),
            dispatch: Vec::new(),
        })
    }

    /// Say what the inputs issued from now on are measured as. An
    /// untraced run stays at [`Measure::Skip`] whatever is asked.
    pub fn set_population(&mut self, population: Measure) {
        self.population = if self.traced_run {
            population
        } else {
            Measure::Skip
        };
        self.tracing = self.population != Measure::Skip;
        self.stack.settle.set_tracing(self.tracing);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    fn fingerprint(&mut self, input: impl Hash) {
        // DefaultHasher::new() is keyed with constants, so the value
        // repeats across processes.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (self.stream_hash, input).hash(&mut h);
        self.stream_hash = h.finish();
    }

    fn log_txn(&mut self, ops: &Json) {
        if self.traced_run {
            self.fingerprint(ops.to_string());
            self.replay.push(Replay::Txn {
                ops: ops.clone(),
                measure: self.population,
            });
        }
    }

    fn log_digests(&mut self, switch: usize, digests: &[Digest], insert: bool) {
        if self.traced_run {
            self.fingerprint((switch, digests, insert));
            self.replay.push(Replay::Digests {
                switch,
                digests: digests.to_vec(),
                insert,
                measure: self.population,
            });
        }
    }

    /// Turn the taps' call log into spans under `parent`.
    fn tap_spans(&mut self, names: &Names, op: u64, parent: Option<usize>) {
        for call in self.stack.settle.take_calls() {
            let name = match call.kind {
                TapKind::Write => names.write,
                TapKind::Mcast => names.mcast,
                TapKind::ReadAll => names.read_all,
            };
            self.trace
                .span(name, op, parent, call.start_ns, call.end_ns);
        }
    }

    /// The direct controller handles the monitor update of the
    /// transaction just issued; traced, through the split public calls
    /// so every hop gets its span.
    fn absorb(
        &mut self,
        names: &Names,
        op: u64,
        root: Option<usize>,
        origin_ns: u64,
    ) -> Result<(), String> {
        let Plane::Direct {
            controller,
            updates,
        } = &mut self.stack.plane
        else {
            return Ok(());
        };
        if !self.tracing {
            let update = updates
                .recv_timeout(REPLY_TIMEOUT)
                .map_err(|e| format!("no monitor update: {e}"))?;
            controller.handle_monitor_update(&update)?;
            return Ok(());
        }
        let t_wait = now_ns();
        let update = updates
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|e| format!("no monitor update: {e}"))?;
        let t_recv = now_ns();
        let ops = {
            let rel_types = |name: &str| controller.engine().relation_types(name);
            convert::monitor_update_to_ops(&update, &self.stack.art.schema, &rel_types)?
        };
        let t_decoded = now_ns();
        let (_, plan) = controller.commit_to_plan(ops, TraceCtx::minted("monitor"))?;
        let t_planned = now_ns();
        if let Some(plan) = plan {
            controller.push_plan(plan)?;
        }
        let t_pushed = now_ns();
        self.trace
            .span(names.update_lag, op, None, origin_ns, t_recv);
        self.trace.span(names.wait, op, root, t_wait, t_recv);
        self.trace.span(names.decode, op, root, t_recv, t_decoded);
        self.trace
            .span(names.commit, op, root, t_decoded, t_planned);
        let push = self.trace.span(names.push, op, root, t_planned, t_pushed);
        self.tap_spans(names, op, Some(push));
        Ok(())
    }

    fn open_root(&mut self, name: &'static str, origin_ns: u64) -> (u64, Option<usize>) {
        let op = self.next_op;
        self.next_op += 1;
        let root = self
            .tracing
            .then(|| self.trace.span(name, op, None, origin_ns, origin_ns));
        (op, root)
    }

    /// Issue one management-plane transaction whose effect `witnesses`
    /// describe, timed from `origin_ns` (now, or the due time of an
    /// open-loop operation). On the direct plane this runs the change
    /// all the way to the switches; on the sharded plane it returns
    /// once OVSDB replied.
    fn issue(
        &mut self,
        names: &'static Names,
        subject: u64,
        witnesses: Vec<Witness>,
        ops: Json,
        origin_ns: Option<u64>,
    ) -> Result<Ticket, String> {
        let settle_id = self.stack.settle.register(subject, witnesses)?;
        let start_ns = now_ns();
        let origin_ns = origin_ns.unwrap_or(start_ns);
        let (op, root) = self.open_root(names.root, origin_ns);
        self.log_txn(&ops);
        let sent = self.stack.transact(ops);
        let returned_ns = now_ns();
        if self.tracing {
            self.trace
                .span(names.transact, op, root, start_ns, returned_ns);
        }
        let handled = sent.and_then(|()| self.absorb(names, op, root, origin_ns));
        if let Err(e) = handled {
            // Stop watching: the operation is failed, not late.
            self.stack.settle.wait(settle_id, Instant::now());
            return Err(e);
        }
        if self.tracing && matches!(self.stack.plane, Plane::Sharded { .. }) {
            self.issued.push((op, origin_ns));
        }
        Ok(Ticket {
            settle_id,
            op,
            origin_ns,
            root,
        })
    }

    /// Wait until the operation is on every switch it concerns.
    fn finish(&mut self, ticket: Ticket, deadline: Instant) -> Result<Done, String> {
        let settled = self
            .stack
            .settle
            .wait(ticket.settle_id, deadline)
            .ok_or_else(|| format!("op {} did not settle in time", ticket.op))?;
        if let Some(root) = ticket.root {
            self.trace.spans[root].end_ns = settled.at_ns;
            if let Some(started) = settled.first_write_start_ns {
                self.dispatch.push((ticket.op, started));
            }
        }
        Ok(Done {
            lag_us: us_between(ticket.origin_ns, settled.at_ns),
            settled_ns: settled.at_ns,
        })
    }

    /// Issue a configuration change (counted as attempted); `None` when
    /// it failed.
    pub fn issue_config(&mut self, op: &ConfigOp, origin_ns: Option<u64>) -> Option<Ticket> {
        self.attempted += 1;
        match self.issue(
            &SINGLE,
            op.subject(),
            op.witnesses(),
            op.transact(),
            origin_ns,
        ) {
            Ok(t) => Some(t),
            Err(e) => {
                self.fail(format!("{op:?}: {e}"));
                None
            }
        }
    }

    /// Wait for a configuration change until `deadline`; `None` when
    /// it failed.
    pub fn finish_config(&mut self, ticket: Ticket, deadline: Instant) -> Option<Done> {
        match self.finish(ticket, deadline) {
            Ok(d) => Some(d),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// One closed-loop configuration change.
    pub fn config(&mut self, op: &ConfigOp) -> Option<Done> {
        let ticket = self.issue_config(op, None)?;
        self.finish_config(ticket, Instant::now() + SETTLE_TIMEOUT)
    }

    /// An open-loop operation settled, but later than the limit.
    pub fn fail_late(&mut self, lag_us: f64) {
        self.fail(format!("settled after {lag_us:.0} us, past the limit"));
    }

    /// Bulk-load the generator's ports in [`LOAD_BATCH`]-row
    /// transactions, each one closed-loop through the whole stack.
    /// Returns the rows loaded.
    pub fn load(&mut self) -> Result<usize, String> {
        // Groups are pushed in ascending order after the entries, so in
        // each batch the row on the highest VLAN is the last to land.
        let last_to_land: Vec<(u16, u16)> = self
            .cfg
            .ports()
            .chunks(LOAD_BATCH)
            .map(|rows| {
                let row = rows.iter().map(|p| (p.vlans()[0], p.id)).max();
                row.expect("batches are not empty")
            })
            .collect();
        for (ops, (tag, port)) in self.cfg.preload(LOAD_BATCH).into_iter().zip(last_to_land) {
            let witnesses = access_port_landed(port, tag);
            let ticket = self.issue(&LOAD, port as u64, witnesses, ops, None)?;
            self.finish(ticket, Instant::now() + REPLY_TIMEOUT)?;
        }
        self.end_phase(&LOAD);
        Ok(self.cfg.ports().len())
    }

    /// Preload `n` live MACs, one digest batch per switch.
    pub fn load_macs(&mut self, n: usize) -> Result<(), String> {
        let mut per_switch: Vec<Vec<Digest>> = vec![Vec::new(); SWITCHES];
        let mut last: Vec<Option<Station>> = vec![None; SWITCHES];
        for _ in 0..n {
            let op = self.macs.next_learn();
            per_switch[op.station.switch].push(mac_digest(&op.station));
            last[op.station.switch] = Some(op.station);
        }
        for (switch, digests) in per_switch.into_iter().enumerate() {
            let Some(station) = last[switch] else {
                continue;
            };
            let learn = LearnOp {
                station,
                peer: None,
                aged: None,
            };
            let id = self
                .stack
                .settle
                .register(station.subject(), learn.witnesses())?;
            self.log_digests(switch, &digests, true);
            match &mut self.stack.plane {
                Plane::Direct { controller, .. } => {
                    controller.handle_digests(switch, &digests)?;
                }
                Plane::Sharded { runtime, .. } => runtime.handle_digests(switch, digests)?,
            }
            self.stack
                .settle
                .wait(id, Instant::now() + REPLY_TIMEOUT)
                .ok_or("MAC preload did not settle")?;
        }
        self.stack.settle.take_calls();
        Ok(())
    }

    fn digest_from(&mut self, switch: usize) -> Result<Vec<Digest>, String> {
        self.stack.switches[switch]
            .digests
            .recv_timeout(SETTLE_TIMEOUT)
            .map_err(|e| format!("no digest from switch {switch}: {e}"))
    }

    fn learn_inner(&mut self, learn: &LearnOp) -> Result<Done, String> {
        let station = learn.station;
        let switch = station.switch;
        let settle_id = self
            .stack
            .settle
            .register(station.subject(), learn.witnesses())?;
        let bytes = frame(
            learn.peer.map_or(Mac::BROADCAST, Mac::from_u64),
            station.learned.mac,
        );
        let origin_ns = now_ns();
        let (op, root) = self.open_root(LEARN_ROOT, origin_ns);
        let result = (|| {
            self.stack.switches[switch]
                .device
                .inject(station.learned.port, &bytes);
            let t_injected = now_ns();
            let batch = self.digest_from(switch)?;
            let t_digest = now_ns();
            if batch != [mac_digest(&station)] {
                return Err(format!("unexpected digest batch {batch:?}"));
            }
            self.log_digests(switch, &batch, true);
            let aged = learn.aged.map(|a| (a.switch, vec![mac_digest(&a)]));
            if let Some((s, d)) = &aged {
                self.log_digests(*s, d, false);
            }
            match &mut self.stack.plane {
                Plane::Direct { controller, .. } => {
                    controller.handle_digests(switch, &batch)?;
                    if let Some((s, d)) = &aged {
                        controller.retract_digests(*s, d)?;
                    }
                }
                Plane::Sharded { runtime, .. } => {
                    runtime.handle_digests(switch, batch)?;
                    if let Some((s, d)) = aged {
                        runtime.retract_digests(s, d)?;
                    }
                }
            }
            let t_handled = now_ns();
            if self.tracing {
                self.trace
                    .span("p4sim.process_packet", op, root, origin_ns, t_injected);
                self.trace
                    .span("p4sim.digest_wait", op, root, t_injected, t_digest);
                let handle = self
                    .trace
                    .span("core.handle_digests", op, root, t_digest, t_handled);
                self.tap_spans(&SINGLE, op, Some(handle));
            }
            Ok(())
        })();
        if let Err(e) = result {
            self.stack.settle.wait(settle_id, Instant::now());
            return Err(e);
        }
        self.finish(
            Ticket {
                settle_id,
                op,
                origin_ns,
                root,
            },
            Instant::now() + SETTLE_TIMEOUT,
        )
    }

    /// One closed-loop MAC-learning step: frame in, digest out over
    /// TCP, entry installed, oldest MAC aged out.
    pub fn learn(&mut self, learn: &LearnOp) -> Option<Done> {
        self.attempted += 1;
        match self.learn_inner(learn) {
            Ok(d) => Some(d),
            Err(e) => {
                self.fail(format!("learn {:?}: {e}", learn.station));
                None
            }
        }
    }

    /// Send one unicast frame between two learned hosts through the
    /// packet network and check it reaches exactly the destination.
    fn forward(&mut self, check: &ForwardCheck) -> Result<(), String> {
        self.forward_checks += 1;
        let from = check.from;
        let t0 = now_ns();
        let bytes = frame(Mac::from_u64(check.to.learned.mac), from.learned.mac);
        let deliveries = self
            .net
            .send_raw(host_id(self.ports, from.switch, from.learned.port), bytes);
        let t1 = now_ns();
        if self.tracing {
            let op = self.next_op;
            self.next_op += 1;
            self.trace.span("netsim.frame", op, None, t0, t1);
        }
        // The switch reports the (already known) source again; a real
        // controller would drop the duplicate, and so does the bench.
        let echo = self.digest_from(from.switch)?;
        if echo != [mac_digest(&from)] {
            return Err(format!("unexpected digest after forward: {echo:?}"));
        }
        // Exactly one copy at the destination; a mirrored ingress port
        // adds its one clone, anything more means the frame flooded.
        let want = host_id(self.ports, check.to.switch, check.to.learned.port);
        let mirrored = self.cfg.ports()[from.learned.port as usize - 1]
            .mirror
            .is_some();
        let at_dst = deliveries.iter().filter(|d| d.host == want).count();
        if at_dst == 1 && deliveries.len() <= 1 + mirrored as usize {
            Ok(())
        } else {
            Err(format!(
                "frame {:?} -> {:?} reached hosts {:?}, wanted only {want}",
                from.learned,
                check.to.learned,
                deliveries.iter().map(|d| d.host).collect::<Vec<_>>()
            ))
        }
    }

    /// Close a phase: turn what the taps and the pump logged into spans
    /// under the phase's names.
    pub fn end_phase(&mut self, names: &Names) {
        if !self.traced_run {
            return;
        }
        self.tap_spans(names, 0, None);
        let pump = self.stack.take_pump_log();
        let issued = std::mem::take(&mut self.issued);
        let dispatch = std::mem::take(&mut self.dispatch);
        if !self.tracing || pump.len() != issued.len() {
            return;
        }
        for ((op, origin_ns), rec) in issued.iter().zip(&pump) {
            self.trace
                .span(names.update_lag, *op, None, *origin_ns, rec.received_ns);
            self.trace
                .span("shard.enqueue", *op, None, rec.received_ns, rec.enqueued_ns);
            if let Some((_, started)) = dispatch.iter().find(|(o, _)| o == op) {
                self.trace
                    .span("shard.dispatch", *op, None, rec.enqueued_ns, *started);
            }
        }
    }

    /// One resync drill: cut the monitor link, change [`DRILL_ROWS`]
    /// rows, reconnect and resync from the snapshot. Returns the
    /// seconds from dialling until every missed change is on every
    /// switch.
    pub fn drill_resync(&mut self) -> Result<f64, String> {
        self.stack.drop_monitor()?;
        let mut pending = Vec::with_capacity(DRILL_ROWS);
        // Distinct ports: two moves of one port could cancel out while
        // nobody is looking, and a change that changes nothing can
        // never be seen to settle.
        for op in self.cfg.next_burst(DRILL_ROWS) {
            let id = self.stack.settle.register(op.subject(), op.witnesses())?;
            let ops = op.transact();
            self.log_txn(&ops);
            let t0 = now_ns();
            self.stack.transact(ops)?;
            if self.tracing {
                // No monitor is attached: this is the bare round trip.
                self.trace.span(DRILL.transact, 0, None, t0, now_ns());
            }
            pending.push(id);
        }
        let start = Instant::now();
        let t_start = now_ns();
        let (op, root) = self.open_root("drill.resync", t_start);
        let tables = monitor_config().tables();
        let (client, initial, updates) = self.stack.dial_monitor()?;
        let t_snapshot = now_ns();
        match &mut self.stack.plane {
            Plane::Direct { controller, .. } => {
                controller.resync_from_snapshot(&initial, &tables)?;
            }
            Plane::Sharded { runtime, .. } => {
                runtime.resync_from_snapshot(&initial, &tables)?;
                runtime.flush();
            }
        }
        let t_resynced = now_ns();
        self.stack.adopt_monitor(client, updates);
        if self.tracing {
            self.trace
                .span("ovsdb.snapshot", op, root, t_start, t_snapshot);
            let diff = self
                .trace
                .span("core.resync_diff", op, root, t_snapshot, t_resynced);
            self.tap_spans(&DRILL, op, Some(diff));
        }
        let deadline = Instant::now() + REPLY_TIMEOUT;
        for id in pending {
            self.stack
                .settle
                .wait(id, deadline)
                .ok_or("a change missed while disconnected never reached the switches")?;
        }
        if let Some(root) = root {
            self.trace.spans[root].end_ns = now_ns();
        }
        self.stack.settle.take_calls();
        Ok(start.elapsed().as_secs_f64())
    }

    /// One reconcile drill: switch `idx` restarts empty; time
    /// `replace_switch` + reconcile until it is whole again.
    pub fn drill_reconcile(&mut self, idx: usize) -> Result<f64, String> {
        let tap = self.stack.restart_switch(idx)?;
        let start = Instant::now();
        let t_start = now_ns();
        let (op, root) = self.open_root("core.reconcile", t_start);
        match &mut self.stack.plane {
            Plane::Direct { controller, .. } => {
                controller.replace_switch(idx, tap)?;
                controller.reconcile_switch(idx)?;
            }
            Plane::Sharded { runtime, .. } => {
                runtime.replace_switch(idx, tap)?;
                runtime.flush();
            }
        }
        let secs = start.elapsed().as_secs_f64();
        if let Some(root) = root {
            self.trace.spans[root].end_ns = now_ns();
            self.tap_spans(&DRILL, op, Some(root));
            // The restarted device read back empty. Reconciling an
            // intact neighbour too — as the supervised event loop does
            // after a reconnect — shows the read-back at full size.
            let intact = (idx + 1) % SWITCHES;
            match &mut self.stack.plane {
                Plane::Direct { controller, .. } => {
                    controller.reconcile_switch(intact)?;
                }
                Plane::Sharded { runtime, .. } => {
                    runtime.reconcile_shard(runtime.shard_of_switch(intact))?;
                    runtime.flush();
                }
            }
            for call in self.stack.settle.take_calls() {
                if call.kind == TapKind::ReadAll {
                    self.trace
                        .span(SINGLE.read_all, op, None, call.start_ns, call.end_ns);
                }
            }
        }
        self.stack.settle.take_calls();
        self.net = self.stack.network(self.ports);
        Ok(secs)
    }

    /// The probe of a traced run: `n` port flaps, `n` MAC learns in
    /// pairs and a forwarded frame every fifth pair, closed-loop on the
    /// recovered stack. Every result must carry every per-layer metric,
    /// and a workload's own loop leaves some layers idle (`mac_learn`
    /// never transacts, `port_flap` never sees a digest); the probe is
    /// where those layers get their samples.
    pub fn probe(&mut self, n: usize) {
        for _ in 0..n {
            let op = self.cfg.next_flap();
            self.config(&op);
        }
        // Ports may have moved VLAN since the run began.
        self.macs.rebase(self.cfg.ports());
        for pair in 0..n / 2 {
            let (a, b) = self.macs.next_learn_pair();
            let learned = self.learn(&a).is_some() & self.learn(&b).is_some();
            if learned && pair % 5 == 4 {
                self.forward_check(ForwardCheck {
                    from: a.station,
                    to: b.station,
                });
            }
        }
        self.end_phase(&SINGLE);
    }

    /// Run one forward check; a wrong delivery counts as a failed
    /// operation.
    pub fn forward_check(&mut self, check: ForwardCheck) {
        self.attempted += 1;
        if let Err(e) = self.forward(&check) {
            self.fail(e);
        }
    }

    /// Forward a frame between two hosts of the live set, if it holds
    /// such a pair.
    pub fn forward_between_live(&mut self) {
        if let Some(check) = self.macs.next_forward() {
            self.forward_check(check);
        }
    }

    /// Every switch against the full-recompute baseline of the final
    /// database and the live-MAC model.
    pub fn verify(&mut self) -> Result<(), String> {
        if let Plane::Sharded { runtime, .. } = &self.stack.plane {
            runtime.flush();
        }
        let ports = self.stack.server.with_db(ports_of)?;
        if ports != self.cfg.ports() {
            return Err("the database differs from the generator's model".to_string());
        }
        for (s, sw) in self.stack.switches.iter().enumerate() {
            Desired::of(&ports, &self.macs.live_on(s)).check(s, &sw.device)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4sim::runtime::{FieldMatch, TableEntry, Update, WriteOp};

    /// A small live stack, loaded, with a little of every operation.
    fn exercised(shards: usize) -> Bench {
        let mut bench = Bench::new(shards, 120, 40, 11, false).unwrap();
        assert_eq!(bench.load().unwrap(), 120);
        bench.load_macs(40).unwrap();
        // Learn first: the MAC generator places hosts by the port table
        // it was last based on, and the flaps move ports.
        for _ in 0..20 {
            let learn = bench.macs.next_learn();
            assert!(bench.learn(&learn).is_some(), "{:?}", bench.errors);
        }
        for _ in 0..20 {
            let op = bench.cfg.next_flap();
            assert!(bench.config(&op).is_some(), "{:?}", bench.errors);
        }
        bench
    }

    #[test]
    fn direct_stack_converges_recovers_and_verifies() {
        let mut bench = exercised(0);
        assert!(bench.drill_resync().unwrap() > 0.0);
        assert!(bench.drill_reconcile(0).unwrap() > 0.0);
        bench.probe(10);
        assert_eq!(bench.failed, 0, "{:?}", bench.errors);
        assert!(bench.forward_checks >= 1);
        bench.verify().unwrap();

        // The verification is not vacuous: one stray entry on one
        // device and it fails.
        bench.stack.switches[2]
            .device
            .write(&[Update {
                op: WriteOp::Insert,
                entry: TableEntry {
                    table: "Mirror".into(),
                    matches: vec![FieldMatch::Exact { value: 119 }],
                    priority: 0,
                    action: "mirror_to".into(),
                    params: vec![1],
                },
            }])
            .unwrap();
        let err = bench.verify().unwrap_err();
        assert!(err.contains("switch 2"), "{err}");
    }

    #[test]
    fn sharded_stack_converges_recovers_and_verifies() {
        let mut bench = exercised(2);
        // An open-loop style issue: the reply comes back before the
        // change is on the switches; the wait is what settles it.
        let op = bench.cfg.next_tag();
        let due = now_ns();
        let ticket = bench.issue_config(&op, Some(due)).unwrap();
        let done = bench
            .finish_config(ticket, Instant::now() + SETTLE_TIMEOUT)
            .unwrap();
        assert!(done.settled_ns > due);
        bench.drill_resync().unwrap();
        bench.drill_reconcile(1).unwrap();
        bench.probe(10);
        assert_eq!(bench.failed, 0, "{:?}", bench.errors);
        bench.verify().unwrap();
    }

    #[test]
    fn traced_run_records_the_hop_spans_and_a_replayable_log() {
        let mut bench = Bench::new(0, 60, 10, 5, true).unwrap();
        bench.set_population(Measure::Bulk);
        bench.load().unwrap();
        bench.set_population(Measure::Single);
        let op = bench.cfg.next_tag();
        bench.config(&op).unwrap();
        let learn = bench.macs.next_learn();
        bench.learn(&learn).unwrap();
        bench.end_phase(&SINGLE);
        for name in [
            SINGLE.root,
            SINGLE.transact,
            SINGLE.wait,
            SINGLE.decode,
            SINGLE.commit,
            SINGLE.push,
            SINGLE.write,
            SINGLE.mcast,
            LOAD.transact,
            LEARN_ROOT,
            "p4sim.process_packet",
            "p4sim.digest_wait",
            "core.handle_digests",
        ] {
            assert!(
                !bench.trace.durations_us(name).is_empty(),
                "no span named {name}"
            );
        }
        // The parts of a configuration change add up to its lag.
        let hops = bench.trace.self_time_by_name(SINGLE.root);
        let sum: f64 = hops.values().map(|v| v[0]).sum();
        let whole = bench.trace.durations_us(SINGLE.root)[0];
        assert!((sum - whole).abs() < 0.01 * whole, "{sum} vs {whole}");

        let shadow = crate::shadow::replay(&bench.stack.art, &bench.replay).unwrap();
        for stem in [
            "ovsdb.db_transact",
            "ovsdb.wal_self",
            "ovsdb.monitor_format",
            "core.decode",
            "core.commit_to_plan",
            "ddlog.commit",
            "p4sim.table_apply",
            "load.core.decode",
        ] {
            assert!(shadow.samples.contains_key(stem), "no shadow sample {stem}");
        }
        assert!(shadow.tuples > 0 && shadow.state_bytes > 0);
    }
}
