//! The four workloads, the run around them, and the metrics they yield.

use std::time::{Duration, Instant};

use crate::exec::{Bench, Measure, LEARN_ROOT, LOAD, SINGLE};
use crate::gen::SWITCHES;
use crate::settle::{now_ns, us_between, TapCounts, SETTLE_TIMEOUT};
use crate::shadow::{self, ShadowOut};
use crate::stack::{run_dir, Plane};
use crate::stats::{median, p99, P99};
use crate::trace::Trace;

/// Set-ups per run; `setup_s` and `load_rows_per_s` are their medians.
/// Only the first stack runs the rounds. The others come after it is
/// gone: set up between the rounds, beside it, they were measured to
/// leave the heap in a state that makes the next drill's time a lottery
/// (`reconcile_s` of `scale_20k` spread 0.26 instead of 0.09).
const SETUPS: usize = 3;
/// Rounds per run. A round is a fifth of the measured phase followed by
/// one recovery drill of each kind, and every timing of the run is the
/// median over the rounds of the round's own statistic: the host runs
/// slower for seconds at a time, and a stretch that covers one or two
/// rounds then moves no metric (README, "Noise").
const ROUNDS: usize = 5;
/// Operations per open-loop burst, and the burst period.
const BURST: usize = 30;
const BURST_PERIOD: Duration = Duration::from_millis(200);
/// Live MACs kept by `mac_learn`.
const LIVE_MACS: usize = 2_000;
/// Port flaps, and MAC learns, in the probe of a traced run.
const PROBE: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PortFlap,
    MacLearn,
    BurstSharded,
    Scale20k,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PortFlap,
        Workload::MacLearn,
        Workload::BurstSharded,
        Workload::Scale20k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PortFlap => "port_flap",
            Workload::MacLearn => "mac_learn",
            Workload::BurstSharded => "burst_sharded",
            Workload::Scale20k => "scale_20k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn ports(self) -> usize {
        match self {
            Workload::Scale20k => 20_000,
            _ => 2_000,
        }
    }

    fn shards(self) -> usize {
        match self {
            Workload::BurstSharded => 2,
            _ => 0,
        }
    }
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Run exactly this many operations instead of `seconds`. Only the
    /// self-check sets it: fixed work makes the counts repeat.
    pub ops: Option<u64>,
    pub traced: bool,
    /// One set-up and one round instead of several.
    pub smoke: bool,
}

impl Opts {
    /// `(set-ups, rounds)` of the run.
    fn reps(&self) -> (usize, usize) {
        if self.smoke {
            (1, 1)
        } else {
            (SETUPS, ROUNDS)
        }
    }
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 = a count or a single reading).
    pub samples: usize,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }

    fn count(name: &'static str, value: f64) -> Metric {
        Metric::new(name, value, "count", 0)
    }

    /// The median of samples taken in µs, reported in `unit` (`"us"` or
    /// `"ms"`).
    fn median_us(name: &'static str, unit: &'static str, samples_us: &[f64]) -> Metric {
        let scale = if unit == "ms" { 1e-3 } else { 1.0 };
        Metric::new(name, med(samples_us) * scale, unit, samples_us.len())
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The contract's metrics for this kind of run.
    pub metrics: Vec<Metric>,
    /// Metrics only some workloads have; printed and written to the
    /// trace file, never part of the contract.
    pub local: Vec<Metric>,
    pub notes: Vec<String>,
    /// Fingerprint of every input handed to the stack (traced runs).
    pub stream_hash: u64,
}

/// How long the measured phase still has to go.
struct Budget {
    deadline: Option<Instant>,
    ops_left: Option<u64>,
}

impl Budget {
    fn new(seconds: f64, ops: Option<u64>) -> Budget {
        Budget {
            deadline: ops
                .is_none()
                .then(|| Instant::now() + Duration::from_secs_f64(seconds)),
            ops_left: ops,
        }
    }

    /// Whether a closed loop may issue one more operation.
    fn more(&mut self) -> bool {
        match (&mut self.ops_left, self.deadline) {
            (Some(0), _) => false,
            (Some(left), _) => {
                *left -= 1;
                true
            }
            (None, Some(deadline)) => Instant::now() < deadline,
            (None, None) => false,
        }
    }
}

/// The sizes of the bursts an open loop sends: as many whole periods as
/// fit the phase, or the operation count cut into bursts.
fn burst_sizes(seconds: f64, ops: Option<u64>) -> Vec<usize> {
    match ops {
        Some(n) => {
            let n = n as usize;
            let mut sizes = vec![BURST; n / BURST];
            sizes.extend((!n.is_multiple_of(BURST)).then_some(n % BURST));
            sizes
        }
        None => {
            let bursts = (seconds / BURST_PERIOD.as_secs_f64()).floor().max(1.0);
            vec![BURST; bursts as usize]
        }
    }
}

/// What one measured phase produced.
#[derive(Default)]
struct Phase {
    lags_us: Vec<f64>,
    /// Operations settled per second of the phase.
    rate_per_s: f64,
    cpu_s: f64,
    /// Open loop only: how late each operation was issued.
    late_us: Vec<f64>,
    /// Open loop only: operations unsettled when the send window closed.
    backlog_end: usize,
    counters: Counters,
}

impl Phase {
    /// Pool another slice of the measured phase into this one.
    fn absorb(&mut self, slice: Phase) {
        self.lags_us.extend(slice.lags_us);
        self.late_us.extend(slice.late_us);
        self.backlog_end = self.backlog_end.max(slice.backlog_end);
        self.cpu_s += slice.cpu_s;
        self.counters = self.counters.plus(slice.counters);
    }

    fn round(&self) -> Round {
        Round {
            lag_p50_us: med(&self.lags_us),
            lag_p99: p99(&self.lags_us),
            ops_per_s: self.rate_per_s,
            cpu_us_per_op: self.cpu_s * 1e6 / self.lags_us.len().max(1) as f64,
        }
    }
}

/// One round's statistics of its slice of the measured phase.
struct Round {
    lag_p50_us: f64,
    lag_p99: Option<P99>,
    ops_per_s: f64,
    cpu_us_per_op: f64,
}

/// The median over the rounds of one of their statistics.
fn over_rounds(rounds: &[Round], stat: impl Fn(&Round) -> f64) -> f64 {
    med(&rounds.iter().map(stat).collect::<Vec<f64>>())
}

/// Process-wide counters read before and after a phase.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    wire_bytes: u64,
    wal_bytes: u64,
    events: u64,
    taps: TapCounts,
}

impl Counters {
    fn read(bench: &Bench) -> Counters {
        let reg = &telemetry::global().registry;
        let value = |name: &str| reg.value(name).unwrap_or(0);
        Counters {
            wire_bytes: value("ovsdb_wire_tx_bytes_total") + value("ovsdb_wire_rx_bytes_total"),
            wal_bytes: value("ovsdb_wal_bytes_total"),
            events: value("nerpa_flight_events_total"),
            taps: bench.stack.settle.counts(),
        }
    }

    fn plus(self, other: Counters) -> Counters {
        Counters {
            wire_bytes: self.wire_bytes + other.wire_bytes,
            wal_bytes: self.wal_bytes + other.wal_bytes,
            events: self.events + other.events,
            taps: TapCounts {
                writes: self.taps.writes + other.taps.writes,
                entries: self.taps.entries + other.taps.entries,
            },
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            wire_bytes: self.wire_bytes - before.wire_bytes,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            events: self.events - before.events,
            taps: TapCounts {
                writes: self.taps.writes - before.taps.writes,
                entries: self.taps.entries - before.taps.entries,
            },
        }
    }
}

/// User plus system CPU seconds of the whole process, every thread
/// included, from the process CPU-time clock: nanoseconds, where
/// `/proc/self/stat` counts ticks of 10 ms and a round of the open loop
/// (0.5 s of CPU) would read in steps of 2 %.
fn cpu_seconds() -> f64 {
    // `struct timespec` and the clock id of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec`, as the call requires.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed single-thread spin kernel, timed: shows the host's speed at
/// this moment. Informational only — timings are never normalised by it.
fn host_spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

fn closed_loop(bench: &mut Bench, workload: Workload, mut budget: Budget, phase: &mut Phase) {
    let mut n = 0u64;
    while budget.more() {
        let done = match workload {
            Workload::MacLearn => {
                let learn = bench.macs.next_learn();
                bench.learn(&learn)
            }
            _ => {
                let op = bench.cfg.next_flap();
                bench.config(&op)
            }
        };
        phase.lags_us.extend(done.map(|d| d.lag_us));
        n += 1;
        if workload == Workload::MacLearn && n.is_multiple_of(10) {
            bench.forward_between_live();
        }
    }
}

/// Wait for a due time without spinning. This paces the open loop; it
/// is not inside any operation's measured interval.
fn wait_until(due_ns: u64) {
    loop {
        let now = now_ns();
        if now >= due_ns {
            return;
        }
        std::thread::park_timeout(Duration::from_nanos(due_ns - now));
    }
}

fn open_loop(bench: &mut Bench, sizes: &[usize], phase: &mut Phase) {
    let period = BURST_PERIOD.as_nanos() as u64;
    let first_due = now_ns() + 5_000_000;
    let mut tickets = Vec::new();
    for (burst, size) in sizes.iter().enumerate() {
        let due = first_due + burst as u64 * period;
        wait_until(due);
        phase.late_us.push(us_between(due, now_ns()));
        // Every operation of the burst is timed from the burst's due
        // time, so a stall charges the operations it delayed.
        for op in bench.cfg.next_burst(*size) {
            tickets.extend(bench.issue_config(&op, Some(due)).map(|t| (burst, t)));
        }
    }
    phase.backlog_end = bench.stack.settle.pending();
    // When each burst's last operation settled.
    let mut burst_done = vec![0u64; sizes.len()];
    let deadline = Instant::now() + SETTLE_TIMEOUT;
    for (burst, ticket) in tickets {
        if let Some(done) = bench.finish_config(ticket, deadline) {
            if done.lag_us > SETTLE_TIMEOUT.as_micros() as f64 {
                bench.fail_late(done.lag_us);
            } else {
                burst_done[burst] = burst_done[burst].max(done.settled_ns);
                phase.lags_us.push(done.lag_us);
            }
        }
    }
    // The delivered rate is measured between completions: from the
    // first burst's last settle to the last burst's, which spans the
    // operations of every burst but the first.
    let first_burst = sizes.first().copied().unwrap_or(0);
    let after_first = phase.lags_us.len().saturating_sub(first_burst);
    match (burst_done.first(), burst_done.last()) {
        (Some(&first), Some(&last)) if last > first => {
            phase.rate_per_s = after_first as f64 / ((last - first) as f64 / 1e9);
        }
        _ => phase.rate_per_s = 0.0,
    }
}

/// Run one slice of the measured phase of `workload`: for `seconds`, or
/// for exactly `ops` operations.
fn measured_phase(bench: &mut Bench, workload: Workload, seconds: f64, ops: Option<u64>) -> Phase {
    let mut phase = Phase::default();
    let counters = Counters::read(bench);
    let cpu = cpu_seconds();
    let start = Instant::now();
    if workload == Workload::BurstSharded {
        open_loop(bench, &burst_sizes(seconds, ops), &mut phase);
    } else {
        closed_loop(bench, workload, Budget::new(seconds, ops), &mut phase);
        phase.rate_per_s = phase.lags_us.len() as f64 / start.elapsed().as_secs_f64();
    }
    phase.cpu_s = cpu_seconds() - cpu;
    phase.counters = Counters::read(bench).since(counters);
    bench.end_phase(&SINGLE);
    phase
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// One set-up: build the stack and load it. Returns the loaded bench,
/// the set-up seconds and the bulk-load rate.
fn set_up(opts: &Opts) -> Result<(Bench, f64, f64), String> {
    let w = opts.workload;
    let start = Instant::now();
    let mut bench = Bench::new(w.shards(), w.ports(), LIVE_MACS, opts.seed, opts.traced)?;
    bench.set_population(Measure::Bulk);
    let load_start = Instant::now();
    let rows = bench.load()?;
    let load_s = load_start.elapsed().as_secs_f64();
    bench.set_population(Measure::Skip);
    if w == Workload::MacLearn {
        bench.load_macs(LIVE_MACS)?;
    }
    Ok((bench, start.elapsed().as_secs_f64(), rows as f64 / load_s))
}

/// The trace file of a traced run: the result's metrics, the
/// workload-local ones and every span.
fn write_trace(
    opts: &Opts,
    trace: &Trace,
    metrics: &[Metric],
    local: &[Metric],
) -> Result<String, String> {
    let path = run_dir().join(format!("trace-{}-{}.json", opts.workload.name(), opts.seed));
    let as_json = |ms: &[Metric]| {
        let body: Vec<String> = ms
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                    m.name, m.value, m.unit, m.samples
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let head = [
        ("workload", format!("\"{}\"", opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("per_layer", as_json(metrics)),
        ("local", as_json(local)),
    ];
    trace
        .write_json(&path, &head)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(format!("trace written to {}", path.display()))
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(run_dir()).map_err(|e| format!("cannot create run dir: {e}"))?;
    let w = opts.workload;
    let spin_ms = host_spin_ms();
    let (setups, rounds) = opts.reps();

    // The first set-up builds the stack that runs everything below.
    let (mut bench, setup_s, rows_per_s) = set_up(opts)?;

    // The measured phase is cut into one slice per round. A traced run
    // spends one more slice untraced first, so that the tracing overhead
    // can be read off one process.
    let slices = rounds + usize::from(opts.traced);
    let slice_s = opts.seconds / slices as f64;
    let slice_ops = opts.ops.map(|n| n / slices as u64);
    let untraced = opts
        .traced
        .then(|| measured_phase(&mut bench, w, slice_s, slice_ops));

    // The rounds: a slice of the measured phase, then one recovery drill
    // of each kind. `phase` pools the slices for the counts.
    let mut phase = Phase::default();
    let mut stats = Vec::new();
    let mut resyncs = Vec::new();
    let mut reconciles = Vec::new();
    let mut rss_mb = 0.0;
    for round in 0..rounds {
        bench.set_population(Measure::Single);
        let slice = measured_phase(&mut bench, w, slice_s, slice_ops);
        stats.push(slice.round());
        phase.absorb(slice);
        bench.set_population(Measure::Drill);
        resyncs.push(bench.drill_resync()?);
        reconciles.push(bench.drill_reconcile(round % SWITCHES)?);
        // The drill moved ports to other VLANs.
        bench.macs.rebase(bench.cfg.ports());
        if round == 0 {
            // The peak of one stack through load and one whole round.
            // The rounds after it are there for steadier medians, and
            // what their drills leave behind in the allocator is not the
            // program's need.
            rss_mb = peak_rss_mb();
        }
    }
    // Traced runs: the probe of the layers the workload leaves idle.
    if opts.traced {
        bench.set_population(Measure::Probe);
        bench.probe(PROBE);
    }
    bench.set_population(Measure::Skip);

    let mut local = shard_metrics(&bench);
    // What the rounds after the first added to the peak.
    local.push(Metric::new("bench.rss_end_mb", peak_rss_mb(), "MB", 0));
    let verified = bench.verify();
    let scrape_start = Instant::now();
    std::hint::black_box(telemetry::global().registry.render_text());
    let scrape_ms = scrape_start.elapsed().as_secs_f64() * 1e3;

    let mut notes = bench.errors.clone();
    if let Err(e) = &verified {
        notes.push(format!("verification failed: {e}"));
    }
    let n = phase.lags_us.len();
    let lag_p50 = over_rounds(&stats, |r| r.lag_p50_us);
    let lag_p99 = over_rounds(&stats, |r| r.lag_p99.map_or(0.0, |t| t.value));
    // The round whose 99th percentile has the fewest samples beyond it.
    let weakest = stats
        .iter()
        .filter_map(|r| r.lag_p99)
        .min_by_key(|t| t.beyond);
    if let Some(tail) = weakest.filter(|t| !t.supported()) {
        notes.push(format!(
            "lag_p99_us: a round's 99th percentile rests on {} samples beyond it, fewer \
             than {}: {n} operations in {rounds} round(s) are too few",
            tail.beyond,
            crate::stats::MIN_BEYOND
        ));
    }
    local.push(Metric::count(
        "bench.lag_p99_beyond",
        weakest.map_or(0.0, |t| t.beyond as f64),
    ));
    if bench.forward_checks > 0 {
        local.push(Metric::count(
            "bench.forward_checks",
            bench.forward_checks as f64,
        ));
    }
    if w == Workload::BurstSharded {
        let late = p99(&phase.late_us).map_or(0.0, |t| t.value);
        local.push(Metric::new(
            "bench.late_p99_us",
            late,
            "us",
            phase.late_us.len(),
        ));
        local.push(Metric::count("bench.backlog_end", phase.backlog_end as f64));
    }
    let (attempted, failed, stream_hash) = (bench.attempted, bench.failed, bench.stream_hash);

    let metrics = match untraced {
        // Traced: replay the run on idle replicas, then read every layer.
        Some(untraced) => {
            let shadow = shadow::replay(&bench.stack.art, &bench.replay)?;
            let layers = Layers {
                trace: &bench.trace,
                shadow: &shadow,
                phase: &phase,
                compile_ms: bench.stack.compile_ns as f64 / 1e6,
                scrape_ms,
                spin_ms,
                overhead: lag_p50 / med(&untraced.lags_us).max(f64::MIN_POSITIVE),
            };
            local.extend(layers.local(w));
            let metrics = layers.contract();
            notes.push(write_trace(opts, &bench.trace, &metrics, &local)?);
            metrics
        }
        None => {
            // The remaining set-ups, one stack alive at a time.
            drop(bench);
            let mut setup_secs = vec![setup_s];
            let mut load_rates = vec![rows_per_s];
            for _ in 1..setups {
                let (_, setup_s, rows_per_s) = set_up(opts)?;
                setup_secs.push(setup_s);
                load_rates.push(rows_per_s);
            }
            local.push(Metric::new("bench.host_spin_ms", spin_ms, "ms", 0));
            vec![
                Metric::new("lag_p50_us", lag_p50, "us", n),
                Metric::new("lag_p99_us", lag_p99, "us", n),
                Metric::new("ops_per_s", over_rounds(&stats, |r| r.ops_per_s), "1/s", n),
                Metric::new(
                    "cpu_us_per_op",
                    over_rounds(&stats, |r| r.cpu_us_per_op),
                    "us",
                    n,
                ),
                Metric::new("setup_s", med(&setup_secs), "s", setup_secs.len()),
                Metric::new("peak_rss_mb", rss_mb, "MB", 0),
                Metric::new("load_rows_per_s", med(&load_rates), "1/s", load_rates.len()),
                Metric::new("resync_s", med(&resyncs), "s", resyncs.len()),
                Metric::new("reconcile_s", med(&reconciles), "s", reconciles.len()),
            ]
        }
    };
    Ok(Report {
        correct: verified.is_ok(),
        attempted,
        failed,
        metrics,
        local,
        notes,
        stream_hash,
    })
}

/// The shard runtime's own counters (sharded stacks only).
fn shard_metrics(bench: &Bench) -> Vec<Metric> {
    let Plane::Sharded { runtime, .. } = &bench.stack.plane else {
        return Vec::new();
    };
    let start = Instant::now();
    runtime.flush();
    let flush_ms = start.elapsed().as_secs_f64() * 1e3;
    let shards = 0..runtime.router().shards();
    let coalesced: u64 = shards.clone().map(|s| runtime.coalesced_writes(s)).sum();
    let hwm = shards
        .map(|s| {
            let (input, writer) = runtime.queue_highwater(s);
            input.max(writer)
        })
        .max()
        .unwrap_or(0);
    vec![
        Metric::new("shard.flush_ms", flush_ms, "ms", 0),
        Metric::count("shard.coalesced_writes", coalesced as f64),
        Metric::count("shard.queue_hwm", hwm as f64),
    ]
}

/// Everything the per-layer metrics are read from.
struct Layers<'a> {
    trace: &'a Trace,
    shadow: &'a ShadowOut,
    phase: &'a Phase,
    compile_ms: f64,
    scrape_ms: f64,
    spin_ms: f64,
    overhead: f64,
}

impl Layers<'_> {
    /// The median of the spans called `span`, as metric `name` in `unit`
    /// (`"us"` or `"ms"`).
    fn in_path(&self, name: &'static str, unit: &'static str, span: &str) -> Metric {
        Metric::median_us(name, unit, &self.trace.durations_us(span))
    }

    /// The median of a shadow sample set.
    fn shadow(&self, name: &'static str, unit: &'static str, stem: &str) -> Metric {
        let samples = self.shadow.samples.get(stem).map_or(&[][..], Vec::as_slice);
        Metric::median_us(name, unit, samples)
    }

    /// The per-layer metrics of the contract, in `BENCHMARK.json` order.
    fn contract(&self) -> Vec<Metric> {
        let ops = self.phase.lags_us.len().max(1) as f64;
        let c = &self.phase.counters;
        vec![
            self.in_path("ovsdb.transact_rtt_us", "us", SINGLE.transact),
            self.in_path("ovsdb.update_lag_us", "us", SINGLE.update_lag),
            self.shadow("ovsdb.db_transact_us", "us", "ovsdb.db_transact"),
            self.shadow("ovsdb.wal_self_us", "us", "ovsdb.wal_self"),
            self.shadow("ovsdb.monitor_format_us", "us", "ovsdb.monitor_format"),
            self.in_path("ovsdb.snapshot_ms", "ms", "ovsdb.snapshot"),
            Metric::count("ovsdb.wire_bytes_per_op", c.wire_bytes as f64 / ops),
            Metric::count("ovsdb.wal_bytes_per_op", c.wal_bytes as f64 / ops),
            Metric::new("core.compile_ms", self.compile_ms, "ms", 0),
            self.shadow("core.decode_us", "us", "core.decode"),
            self.shadow("core.commit_to_plan_us", "us", "core.commit_to_plan"),
            self.shadow("core.route_self_us", "us", "core.route_self"),
            self.in_path("core.resync_diff_ms", "ms", "core.resync_diff"),
            self.in_path("core.reconcile_ms", "ms", "core.reconcile"),
            self.shadow("ddlog.commit_us", "us", "ddlog.commit"),
            Metric::count("ddlog.tuples_per_op", self.shadow.tuples as f64 / ops),
            Metric::count("ddlog.state_bytes", self.shadow.state_bytes as f64),
            self.in_path("p4sim.write_rtt_us", "us", SINGLE.write),
            self.in_path("p4sim.mcast_rtt_us", "us", SINGLE.mcast),
            self.shadow("p4sim.table_apply_us", "us", "p4sim.table_apply"),
            Metric::count("p4sim.writes_per_op", c.taps.writes as f64 / ops),
            Metric::count("p4sim.entries_per_op", c.taps.entries as f64 / ops),
            self.in_path("p4sim.process_packet_us", "us", "p4sim.process_packet"),
            self.in_path("p4sim.digest_wait_us", "us", "p4sim.digest_wait"),
            self.in_path("p4sim.read_all_ms", "ms", SINGLE.read_all),
            self.in_path("netsim.frame_us", "us", "netsim.frame"),
            Metric::count("telemetry.events_per_op", c.events as f64 / ops),
            Metric::new("telemetry.scrape_ms", self.scrape_ms, "ms", 0),
            self.in_path("load.ovsdb_transact_ms", "ms", LOAD.transact),
            self.shadow("load.core_decode_ms", "ms", "load.core.decode"),
            self.shadow("load.ddlog_commit_ms", "ms", "load.ddlog.commit"),
            self.shadow(
                "load.core_commit_to_plan_ms",
                "ms",
                "load.core.commit_to_plan",
            ),
            self.in_path("load.p4sim_write_ms", "ms", LOAD.write),
            Metric::new("bench.host_spin_ms", self.spin_ms, "ms", 0),
            Metric::new("bench.trace_overhead_ratio", self.overhead, "ratio", 0),
        ]
    }

    /// Metrics only this workload has. The direct (single-threaded)
    /// workloads get the hop budget of their own operation kind: per
    /// span name the median self time, and how the parts compare with
    /// the whole. The sharded one gets its queue hops.
    fn local(&self, w: Workload) -> Vec<Metric> {
        let root = match w {
            Workload::BurstSharded => {
                return vec![
                    self.in_path("shard.enqueue_us", "us", "shard.enqueue"),
                    self.in_path("shard.dispatch_us", "us", "shard.dispatch"),
                ]
            }
            Workload::MacLearn => LEARN_ROOT,
            Workload::PortFlap | Workload::Scale20k => SINGLE.root,
        };
        let mut out: Vec<Metric> = self
            .trace
            .self_time_by_name(root)
            .iter()
            .map(|(span, selfs)| Metric::median_us(hop_name(span), "us", selfs))
            .collect();
        let sum: f64 = out.iter().map(|m| m.value).sum();
        let whole = med(&self.trace.durations_us(root));
        out.push(Metric::new(
            "hops.sum_over_lag_p50",
            sum / whole.max(f64::MIN_POSITIVE),
            "ratio",
            0,
        ));
        out
    }
}

/// The local metric name of a span's self time.
fn hop_name(span: &'static str) -> &'static str {
    match span {
        "op.config" | "op.learn" => "hop.bench_self_us",
        "ovsdb.transact" => "hop.ovsdb.transact_us",
        "ovsdb.monitor_wait" => "hop.ovsdb.monitor_wait_us",
        "core.decode" => "hop.core.decode_us",
        "core.commit_to_plan" => "hop.core.commit_to_plan_us",
        "core.push_plan" => "hop.core.push_plan_self_us",
        "core.handle_digests" => "hop.core.handle_digests_self_us",
        "p4sim.write" => "hop.p4sim.write_us",
        "p4sim.mcast" => "hop.p4sim.mcast_us",
        "p4sim.process_packet" => "hop.p4sim.process_packet_us",
        "p4sim.digest_wait" => "hop.p4sim.digest_wait_us",
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_by_ops_and_by_time() {
        let mut b = Budget::new(0.0, Some(2));
        assert!(b.more() && b.more());
        assert!(!b.more());
        assert!(!Budget::new(0.0, None).more());
        assert!(Budget::new(60.0, None).more());
        assert_eq!(burst_sizes(0.0, Some(70)), vec![30, 30, 10]);
        assert_eq!(burst_sizes(10.0, None), vec![30; 50]);
        assert_eq!(burst_sizes(0.05, None), vec![30]);
        assert!(burst_sizes(0.0, Some(0)).is_empty());
    }

    #[test]
    fn open_loop_lag_counts_from_the_due_time() {
        // Due at t=100 ms, issued 3 ms late, settled at t=110 ms: the
        // operation lagged 10 ms (not 7) and the generator ran 3 ms late.
        let (due, issued, settled) = (100_000_000, 103_000_000, 110_000_000);
        assert_eq!(us_between(due, settled), 10_000.0);
        assert_eq!(us_between(due, issued), 3_000.0);
        // A generator that is early is not late.
        assert_eq!(us_between(100, 90), 0.0);
    }

    #[test]
    fn proc_readers_return_something() {
        assert!(peak_rss_mb() > 1.0);
        // The spin burns tens of milliseconds; the CPU clock resolves
        // far less.
        let before = cpu_seconds();
        host_spin_ms();
        assert!(cpu_seconds() - before > 0.001);
    }

    #[test]
    fn a_metric_is_the_median_over_rounds_of_the_rounds_statistic() {
        let slice = |lags: &[f64], rate: f64| Phase {
            lags_us: lags.to_vec(),
            rate_per_s: rate,
            cpu_s: lags.len() as f64 * 1e-3,
            ..Phase::default()
        };
        // Five rounds; the host stalled during the third and the fifth.
        let slices = [
            slice(&[10.0, 11.0, 12.0], 100.0),
            slice(&[10.0, 12.0, 14.0], 90.0),
            slice(&[30.0, 40.0, 90.0], 30.0),
            slice(&[11.0, 13.0, 12.0], 95.0),
            slice(&[25.0, 45.0, 80.0], 35.0),
        ];
        let rounds: Vec<Round> = slices.iter().map(Phase::round).collect();
        assert_eq!(over_rounds(&rounds, |r| r.lag_p50_us), 12.0);
        assert_eq!(over_rounds(&rounds, |r| r.ops_per_s), 90.0);
        assert_eq!(over_rounds(&rounds, |r| r.cpu_us_per_op), 1000.0);
        let p99 = over_rounds(&rounds, |r| r.lag_p99.unwrap().value);
        assert!((13.0..15.0).contains(&p99), "{p99}");
        // Pooling keeps every sample for the counts.
        let mut pooled = Phase::default();
        slices.into_iter().for_each(|s| pooled.absorb(s));
        assert_eq!(pooled.lags_us.len(), 15);
        assert!((pooled.cpu_s - 0.015).abs() < 1e-12);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
