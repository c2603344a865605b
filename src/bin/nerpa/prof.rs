//! `nerpa prof`: replay a seeded management-plane workload through the
//! full in-process stack and print the hottest dataflow operators —
//! the CLI face of the engine's per-operator work profiler.
//!
//! ```text
//! nerpa prof --seed 7 --steps 300          # top-10 hottest operators
//! nerpa prof --seed 7 --steps 300 --top 5  # fewer
//! nerpa prof --json                        # full /dataflow JSON instead
//! nerpa prof --explain                     # full per-rule plan rendering
//! ```
//!
//! With `NERPA_METRICS=1` (or `=json`) the metrics registry is printed
//! after the table, as the report binaries do.
//!
//! The workload is deterministic in `--seed`: a mix of port adds, mode
//! changes (delete + re-add), and removals, the same churn the oracle
//! and the port-scaling experiment exercise.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use snvs::{PortMode, SnvsStack};

struct Args {
    seed: u64,
    steps: usize,
    top: usize,
    json: bool,
    explain: bool,
}

const USAGE: &str = "usage: nerpa prof [--seed N] [--steps M] [--top K] [--json] [--explain]\n\
    \n\
    --seed    workload seed (default 7)\n\
    --steps   number of management-plane operations (default 300)\n\
    --top     how many hottest operators to print (default 10)\n\
    --json    print the full dataflow profile as JSON (the same\n\
    \x20        document the introspection endpoint serves at /dataflow)\n\
    --explain print the compiled plan per rule with cumulative costs";

fn parse_args(argv: Vec<String>) -> Option<Args> {
    let mut args = Args {
        seed: 7,
        steps: 300,
        top: 10,
        json: false,
        explain: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--steps" => args.steps = it.next()?.parse().ok()?,
            "--top" => args.top = it.next()?.parse().ok()?,
            "--json" => args.json = true,
            "--explain" => args.explain = true,
            "--help" | "-h" => crate::usage(USAGE),
            _ => return None,
        }
    }
    Some(args)
}

pub fn run(args: Vec<String>) -> Result<(), String> {
    let Some(args) = parse_args(args) else {
        crate::usage(USAGE)
    };
    let mut stack = SnvsStack::new(1)?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut live: Vec<u16> = Vec::new();
    for step in 0..args.steps {
        let roll = rng.random_range(0..10u32);
        if live.is_empty() || roll < 5 {
            let id = step as u16;
            let mode = if roll % 2 == 0 {
                PortMode::Access(10 + (id % 64))
            } else {
                PortMode::Trunk(vec![10, 20, 30])
            };
            stack.add_port(id, mode, None).expect("add port");
            live.push(id);
        } else if roll < 8 {
            // Mode change: remove + re-add with a different VLAN.
            let id = live[rng.random_range(0..live.len())];
            stack.remove_port(id).expect("remove port");
            stack
                .add_port(id, PortMode::Access(40 + (id % 8)), None)
                .expect("re-add port");
        } else {
            let at = rng.random_range(0..live.len());
            let id = live.swap_remove(at);
            stack.remove_port(id).expect("remove port");
        }
    }

    let engine = stack.controller.engine();
    if args.json {
        println!("{}", engine.explain_json());
        return Ok(());
    }
    if args.explain {
        println!("{}", engine.explain_text());
        return Ok(());
    }

    let profile = engine.cumulative_profile();
    let catalog = engine.op_catalog();
    println!(
        "replayed {} steps (seed {}): {} operators, {} tuples processed",
        args.steps,
        args.seed,
        catalog.len(),
        profile.total_tuples()
    );
    println!("top-{} hottest operators by tuples processed:", args.top);
    for id in profile.hottest(args.top) {
        let meta = &catalog.ops[id];
        let s = &profile.stats[id];
        let rule = meta
            .rule
            .map(|r| format!("rule {r}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "  [{id:3}] {:9} {:32} {:8} inv={:6} in={:8} out={:8} peak={:6} wall_us={}",
            meta.kind.name(),
            meta.detail,
            rule,
            s.invocations,
            s.tuples_in,
            s.tuples_out,
            s.peak,
            s.wall_ns / 1_000
        );
    }
    telemetry::dump_metrics_snapshot();
    Ok(())
}
