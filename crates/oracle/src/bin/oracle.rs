//! The oracle CLI: deterministic differential fuzzing runs.
//!
//! ```text
//! oracle --seed 1..8 --steps 500            # fault-free sweep
//! oracle --seed 3 --steps 500 --chaos 7     # with fault injection
//! oracle --seed 3 --steps 500 --chaos-crash 7  # + server crash faults
//! oracle --seed 3 --steps 200 --bug skip-resync-deletes   # must fail
//! oracle --seed 1..4 --steps 300 --shards 4 # sharded vs unsharded
//! oracle --seed 1 --steps 200 --shards 4 --chaos-crash 7  # any mix
//! oracle --seed 1 --steps 150 --chaos-stall 7  # overload/stall survival
//! ```
//!
//! Exit codes: 0 = all seeds green, 1 = divergence found (a shrunk
//! reproduction is printed), 2 = usage error.

use oracle::{
    run_oracle, run_overload_oracle, InjectedBug, OracleConfig, OracleFailure, OracleReport,
};

struct Args {
    seeds: Vec<u64>,
    steps: usize,
    chaos: Option<u64>,
    crashes: bool,
    bug: Option<InjectedBug>,
    shards: usize,
    stall: Option<u64>,
    flight_dir: Option<std::path::PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: oracle --seed <N | A..B> [--steps M] [--chaos S] [--bug NAME] [--shards N]\n\
         \n\
         --seed  N or inclusive range A..B of workload seeds (required)\n\
         --steps workload length per seed (default 500)\n\
         --chaos chaos seed: inject link outages + switch restarts\n\
         --chaos-crash S like --chaos, plus abrupt server crashes with\n\
         \x20       torn WAL tails (crash-equivalence checked)\n\
         --bug   inject a known controller defect, one of:\n\
         \x20       skip-resync-deletes | drop-config-deletes |\n\
         \x20       stale-arrangement\n\
         --shards N N shard engines over N switches (default 1, the\n\
         \x20       unsharded controller); above 1 the run also checks\n\
         \x20       cross-shard equivalence against one unsharded engine.\n\
         \x20       Combines with --chaos, --chaos-crash and --bug\n\
         --chaos-stall S overload mode: stall a live switch connection\n\
         \x20       mid-churn (frozen socket, not closed) and wedge a slow\n\
         \x20       OVSDB monitor; asserts the writer watchdog fires, the\n\
         \x20       supervisor recovers, queue depths stay bounded, the\n\
         \x20       slow monitor is evicted, and the final data-plane state\n\
         \x20       converges to the fault-free spec (incompatible with\n\
         \x20       --chaos/--chaos-crash/--bug/--shards)\n\
         --flight-dir D arm the flight recorder: failure dumps land in D,\n\
         \x20       and every chaos run writes a run-end `.nfr` there\n\
         \x20       (inspect with `nerpa flight show`)"
    );
    std::process::exit(2);
}

fn parse_seeds(s: &str) -> Option<Vec<u64>> {
    if let Some((a, b)) = s.split_once("..") {
        let a: u64 = a.parse().ok()?;
        let b: u64 = b.trim_start_matches('=').parse().ok()?;
        (a <= b).then(|| (a..=b).collect())
    } else {
        Some(vec![s.parse().ok()?])
    }
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        seeds: Vec::new(),
        steps: 500,
        chaos: None,
        crashes: false,
        bug: None,
        shards: 1,
        stall: None,
        flight_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => args.seeds = parse_seeds(&it.next()?)?,
            "--steps" => args.steps = it.next()?.parse().ok()?,
            "--chaos" => args.chaos = Some(it.next()?.parse().ok()?),
            "--chaos-crash" => {
                args.chaos = Some(it.next()?.parse().ok()?);
                args.crashes = true;
            }
            "--bug" => args.bug = InjectedBug::parse(&it.next()?),
            "--shards" => {
                args.shards = it.next()?.parse().ok()?;
                if args.shards == 0 {
                    return None;
                }
            }
            "--chaos-stall" => args.stall = Some(it.next()?.parse().ok()?),
            "--flight-dir" => args.flight_dir = Some(std::path::PathBuf::from(it.next()?)),
            "--help" | "-h" => usage(),
            _ => return None,
        }
    }
    if args.seeds.is_empty() {
        return None;
    }
    // The overload run drives its own harness (real TCP control + OVSDB
    // connections, chaos stall proxy) and its own pass/fail criteria.
    if args.stall.is_some() && (args.chaos.is_some() || args.bug.is_some() || args.shards > 1) {
        return None;
    }
    Some(args)
}

fn replay_command(cfg: &OracleConfig) -> String {
    let mut cmd = format!("oracle --seed {} --steps {}", cfg.seed, cfg.steps);
    if let Some(c) = cfg.chaos {
        cmd.push_str(&format!(
            " {} {c}",
            if cfg.crashes {
                "--chaos-crash"
            } else {
                "--chaos"
            }
        ));
    }
    if let Some(b) = cfg.bug {
        cmd.push_str(&format!(" --bug {}", b.name()));
    }
    if cfg.shards > 1 {
        cmd.push_str(&format!(" --shards {}", cfg.shards));
    }
    cmd
}

fn report_ok(seed: u64, cfg: &OracleConfig, report: &OracleReport) {
    let shard_note = if cfg.shards > 1 {
        format!(" [{} shards]", cfg.shards)
    } else {
        String::new()
    };
    println!(
        "seed {seed}: OK{shard_note} — {} steps, {} outages, {} switch restarts, \
         {} crashes ({} torn tails), {} txns, {} entries / {} groups installed",
        report.steps,
        report.outages,
        report.switch_restarts,
        report.crashes,
        report.torn_tails,
        report.transactions,
        report.final_entries,
        report.final_groups,
    );
}

fn report_failure(seed: u64, cfg: &OracleConfig, fail: &OracleFailure) {
    println!("seed {seed}: FAILED at {}", fail.failure);
    println!(
        "  shrunk {} ops -> {} ops:",
        fail.original_len,
        fail.shrunk.len()
    );
    for op in &fail.shrunk {
        println!("    {op:?}");
    }
    println!("  replay: {}", replay_command(cfg));
    if let Some(why) = &fail.failure.why_dump {
        println!("  provenance of the first diverging tuple:");
        for line in why.lines() {
            println!("    {line}");
        }
    }
    if let Some(profile) = &fail.failure.work_profile {
        println!("  work profile of failing step:");
        for line in profile.lines() {
            println!("    {line}");
        }
    }
    if let Some(trace) = &fail.failing_trace {
        println!("  last trace before failure:");
        for line in trace.lines() {
            println!("    {line}");
        }
    }
    println!("  metrics at failure:");
    for line in fail.metrics_snapshot.lines() {
        println!("    {line}");
    }
    if let Some(path) = &fail.dump_path {
        println!("  flight recorder dump: {}", path.display());
        println!("  inspect: nerpa flight show {}", path.display());
    }
}

fn main() {
    let Some(args) = parse_args() else { usage() };
    if let Some(dir) = &args.flight_dir {
        telemetry::global().recorder.arm(dir.clone());
    }
    let mut failed = false;
    if let Some(stall_seed) = args.stall {
        for seed in &args.seeds {
            match run_overload_oracle(*seed, args.steps, stall_seed) {
                Ok(r) => println!(
                    "seed {seed}: OK [overload] — {} steps, {} commits during stall, \
                     {} watchdog restarts, {} coalesced writes, {} shed inputs, \
                     {} monitor evictions, {}/{} healthy monitors, {} entries installed",
                    r.steps,
                    r.commits_during_stall,
                    r.watchdog_restarts,
                    r.coalesced,
                    r.sheds,
                    r.evictions,
                    r.healthy_monitors,
                    r.healthy_monitors,
                    r.final_entries,
                ),
                Err(e) => {
                    failed = true;
                    println!("seed {seed}: FAILED [overload] — {e}");
                    println!(
                        "  replay: oracle --seed {seed} --steps {} --chaos-stall {stall_seed}",
                        args.steps
                    );
                }
            }
        }
        std::process::exit(if failed { 1 } else { 0 });
    }
    for seed in &args.seeds {
        let cfg = OracleConfig {
            seed: *seed,
            steps: args.steps,
            chaos: args.chaos,
            crashes: args.crashes,
            bug: args.bug,
            shards: args.shards,
        };
        match run_oracle(&cfg) {
            Ok(report) => report_ok(*seed, &cfg, &report),
            Err(fail) => {
                failed = true;
                report_failure(*seed, &cfg, &fail);
            }
        }
    }
    // `NERPA_METRICS=1` attaches the full registry to a green run, the
    // same snapshot a failure prints unconditionally.
    if std::env::var("NERPA_METRICS").is_ok() {
        print!("\n{}", telemetry::global().registry.render_text());
    }
    // An armed chaos run ships its black box even when green: the
    // run-end dump is what CI parses back with `nerpa flight`.
    if args.chaos.is_some() {
        if let Some(dir) = telemetry::global().recorder.armed_dir() {
            match telemetry::global()
                .recorder
                .dump_into(&dir, "chaos-run", "chaos run end")
            {
                Ok(path) => println!("flight recorder dump: {}", path.display()),
                Err(e) => eprintln!("flight recorder dump failed: {e}"),
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
