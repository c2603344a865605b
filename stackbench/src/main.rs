//! `stackbench`: one configuration change, end to end and layer by
//! layer, through the full stack over loopback TCP. See `README.md`.

mod exec;
mod gen;
mod settle;
mod shadow;
mod stack;
mod stats;
mod trace;
mod verify;
mod workloads;

use workloads::{Metric, Opts, Report, Workload};

const USAGE: &str = "usage: stackbench --workload <port_flap|mac_learn|burst_sharded|scale_20k> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--self-check]";

struct Cli {
    opts: Opts,
    self_check: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut workload = None;
    let mut opts = Opts {
        workload: Workload::PortFlap,
        seed: 1,
        seconds: 10.0,
        ops: None,
        traced: false,
        smoke: false,
    };
    let mut self_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("no workload {name:?}"))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--self-check" => self_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(Cli { opts, self_check })
}

fn print_table(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        let samples = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        eprintln!("  {:<34} {:>14.3} {}{samples}", m.name, m.value, m.unit);
    }
}

/// The result line of the contract: the last line of standard output.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Confine this thread, and so every thread started after it, to one
/// CPU: the highest-numbered one the process may use (device interrupts
/// of the guest land on CPU 0). Returns the CPU.
///
/// Why: a hand-off between threads on two vCPUs wakes a halted vCPU
/// through the hypervisor, and on a shared host that wake-up is cheap or
/// expensive for minutes at a time (`mac_learn` read 70 µs and 300 µs
/// per operation in alternating runs while the same binary confined to
/// one CPU read 66–88 µs throughout). On one CPU a hand-off is a context
/// switch. The closed loops have one runnable thread at a time and lose
/// nothing; the open loop loses the parallelism of its shard threads,
/// which this host cannot resolve anyway. See README, "Noise".
fn pin_to_one_cpu() -> Result<usize, String> {
    // glibc's wrappers; std links the C library. A mask of 1024 CPUs.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `size` writable bytes, as the call requires.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, bits)| **bits != 0)
        .ok_or("empty CPU affinity mask")?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is `size` readable bytes, as the call requires.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(word * 64 + bit)
}

/// Operations in a self-check run: fixed work instead of fixed time.
const SELF_CHECK_OPS: u64 = 300;

/// Run the workload twice on fixed work and require identical operation
/// streams and identical counts.
fn self_check(mut opts: Opts) -> Result<(), String> {
    opts.traced = true;
    opts.smoke = true;
    opts.ops = Some(SELF_CHECK_OPS);
    // How many writes carry the entries, and the events recorded per
    // write, depend on what the shard runtime's threads coalesce.
    let exact: &[&str] = match opts.workload {
        Workload::BurstSharded => &["ddlog.tuples_per_op", "p4sim.entries_per_op"],
        _ => &[
            "ddlog.tuples_per_op",
            "p4sim.entries_per_op",
            "p4sim.writes_per_op",
            "telemetry.events_per_op",
        ],
    };
    let counts = |report: &Report| -> Vec<(&'static str, u64)> {
        report
            .metrics
            .iter()
            .filter(|m| exact.contains(&m.name))
            .map(|m| (m.name, m.value.to_bits()))
            .chain([
                ("op stream", report.stream_hash),
                ("attempted", report.attempted),
            ])
            .collect()
    };
    let first = workloads::run(&opts)?;
    let second = workloads::run(&opts)?;
    if !(first.correct && second.correct) {
        return Err("a self-check run failed verification".to_string());
    }
    let (a, b) = (counts(&first), counts(&second));
    if a != b {
        return Err(format!("same seed, different counts: {a:?} vs {b:?}"));
    }
    for (name, bits) in a {
        match name {
            "op stream" => eprintln!("  {name:<28} {bits:#018x}  identical"),
            "attempted" => eprintln!("  {name:<28} {bits}  identical"),
            _ => eprintln!("  {name:<28} {}  identical", f64::from_bits(bits)),
        }
    }
    Ok(())
}

fn main() {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Before any thread starts, so that all of them inherit it.
    match pin_to_one_cpu() {
        Ok(cpu) => eprintln!("pinned to CPU {cpu}"),
        Err(e) => eprintln!("note: not pinned to one CPU ({e}); timings will be noisier"),
    }
    if cli.self_check {
        match self_check(cli.opts) {
            Ok(()) => eprintln!("self-check passed"),
            Err(e) => {
                eprintln!("self-check FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let opts = cli.opts;
    let report = match workloads::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("stackbench {}: {e}", opts.workload.name());
            std::process::exit(1);
        }
    };
    let kind = if opts.traced {
        "per-layer"
    } else {
        "end-to-end"
    };
    print_table(
        &format!(
            "{} seed {}: {kind} metrics",
            opts.workload.name(),
            opts.seed
        ),
        &report.metrics,
    );
    print_table("workload-local metrics", &report.local);
    for note in &report.notes {
        eprintln!("note: {note}");
    }
    println!("{}", result_line(&report));
    if !report.correct {
        std::process::exit(1);
    }
}
