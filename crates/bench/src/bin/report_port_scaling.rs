//! E2 (§4.3): "we added 2,000 ports to the system. We then measured the
//! time between (1) the OVSDB client reading a new port from OVSDB and
//! (2) the data plane entry being added to the P4 table. The first time
//! difference noted was 0.013 seconds, and the last was 0.018 seconds."
//!
//! This binary regenerates the experiment on our stack: 2,000 ports are
//! added one transaction at a time through the full
//! OVSDB → DDlog → P4Runtime pipeline, recording the end-to-end latency
//! of each. The same change stream then drives the full-recompute
//! baseline to show the non-incremental alternative's latency growth.

use std::hint::black_box;
use std::time::{Duration, Instant};

use baselines::{FullRecompute, PortConfig};
use bench::{ms, print_table, BenchEntry};
use p4sim::runtime::ControlRequest;
use p4sim::service::{read_frame, write_frame, SwitchDevice};
use p4sim::Switch;
use snvs::{PortMode, SnvsStack};

const PORTS: u16 = 2000;
const PORTS_QUICK: u16 = 200;

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn stat_row(name: &str, count: usize, lat: &[Duration]) -> Vec<String> {
    let mut sorted = lat.to_vec();
    sorted.sort();
    vec![
        name.to_string(),
        count.to_string(),
        ms(lat[0]),
        ms(*lat.last().unwrap()),
        ms(percentile(&sorted, 0.5)),
        ms(percentile(&sorted, 0.99)),
        format!(
            "{:.2}x",
            lat.last().unwrap().as_secs_f64() / lat[0].as_secs_f64().max(1e-9)
        ),
    ]
}

/// Timed rounds of the P4Runtime entries (the fastest counts), and the
/// calls each round times per entry.
const P4RT_ROUNDS: usize = 9;
const P4RT_OPS: u32 = 2000;
const APPLY: &str = "port_scaling/p4rt_device_apply/vlan_move";

/// `req` through `write_frame` + `read_frame` in memory; the frame's bytes.
fn codec(req: &ControlRequest) -> u64 {
    let mut frame = Vec::new();
    write_frame(&mut frame, black_box(req)).expect("encode");
    black_box(read_frame::<ControlRequest>(&mut frame.as_slice()).expect("decode"));
    frame.len() as u64
}

fn per_op(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64 / u64::from(P4RT_OPS)
}

/// A port's VLAN move in memory: the device applying the batch the
/// full-recompute controller computes for it (a delete and an insert;
/// the reference), and the frame codec on that batch as a `Write` and
/// on a 320-member `SetMcastGroup`, budgeted against the reference. The
/// entries take turns within a round, so a slow stretch of the host hits
/// all three alike.
fn p4rt_entries() -> Vec<BenchEntry> {
    let device = SwitchDevice::new(Switch::from_source(snvs::assets::SNVS_P4).expect("p4"));
    let mut ctl = FullRecompute::new();
    let mut batch = |vlan| ctl.reconcile(&[PortConfig::access(7, vlan)], &[]).0;
    device.write(&batch(10)).expect("install");
    let moves = [batch(20), batch(10)];
    assert_eq!(moves[0].len(), 2, "a VLAN move is a delete and an insert");
    let (updates, trace) = (moves[0].clone(), Some(1));
    let write = ControlRequest::Write { updates, trace };
    let (group, ports) = (10, (0..320).collect());
    let mcast = ControlRequest::SetMcastGroup { group, ports };
    let codecs = [("write_vlan_move", write, 6.0), ("mcast_320", mcast, 15.0)];
    let mut fastest = [u64::MAX; 3];
    for _ in 0..P4RT_ROUNDS {
        let t = Instant::now();
        for i in 0..P4RT_OPS as usize {
            device.write(&moves[i % 2]).expect("vlan move");
        }
        fastest[0] = fastest[0].min(per_op(t));
        for ((_, req, _), best) in codecs.iter().zip(&mut fastest[1..]) {
            let t = Instant::now();
            black_box((0..P4RT_OPS).map(|_| codec(req)).sum::<u64>());
            *best = (*best).min(per_op(t));
        }
    }
    let mut entries = vec![BenchEntry::new(APPLY, fastest[0], 0)];
    for ((name, req, ratio), ns) in codecs.iter().zip(&fastest[1..]) {
        let name = format!("port_scaling/p4rt_codec/{name}");
        entries.push(BenchEntry::new(&name, *ns, codec(req)).with_wall_budget(APPLY, *ratio));
    }
    entries
}

fn main() {
    let mut out: Option<String> = None;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = args.next(),
            "--quick" => quick = true,
            other => {
                eprintln!("usage: report_port_scaling [--out FILE] [--quick] (got {other:?})");
                std::process::exit(2);
            }
        }
    }
    let ports = if quick { PORTS_QUICK } else { PORTS };

    println!("E2: port-scaling latency (paper §4.3)");
    println!("paper reported: first 13 ms, last 18 ms (1.38x over 2,000 ports)");

    // ---- Nerpa (incremental) ------------------------------------------
    let mut stack = SnvsStack::new(1).expect("stack");
    let mut latencies = Vec::with_capacity(ports as usize);
    let mut tuples = Vec::with_capacity(ports as usize);
    for i in 0..ports {
        let t = Instant::now();
        stack
            .add_port(i, PortMode::Access(10 + (i % 64)), None)
            .expect("add port");
        latencies.push(t.elapsed());
        // Dataflow work of the commit this port-add caused.
        tuples.push(
            stack
                .controller
                .engine()
                .last_profile()
                .map(|p| p.total_tuples())
                .unwrap_or(0),
        );
    }
    assert_eq!(stack.db.table_len("Port"), ports as usize);

    // ---- full recompute baseline ----------------------------------------
    let device = SwitchDevice::new(Switch::from_source(snvs::assets::SNVS_P4).expect("p4"));
    let mut baseline = FullRecompute::new();
    let mut port_cfgs: Vec<PortConfig> = Vec::new();
    let mut b_latencies = Vec::with_capacity(ports as usize);
    for i in 0..ports {
        port_cfgs.push(PortConfig::access(i, 10 + (i % 64)));
        let t = Instant::now();
        let (updates, mcast) = baseline.reconcile(&port_cfgs, &[]);
        device.write(&updates).expect("write");
        for (g, members) in mcast {
            device.set_mcast_group(g, members);
        }
        b_latencies.push(t.elapsed());
    }

    print_table(
        "per-port end-to-end latency (OVSDB commit -> P4 table write)",
        &[
            "controller",
            "ports",
            "first(ms)",
            "last(ms)",
            "p50(ms)",
            "p99(ms)",
            "last/first",
        ],
        &[
            stat_row("nerpa (incremental)", ports as usize, &latencies),
            stat_row("full recompute", ports as usize, &b_latencies),
        ],
    );

    let tuples_per_op = bench::median(&tuples);
    println!("\nincremental dataflow work: median {tuples_per_op} tuples per port-add commit");
    println!(
        "shape check: the incremental controller's last/first ratio stays near the \
         paper's 1.38x; the full-recompute baseline grows with network size."
    );

    let p4rt = p4rt_entries();
    for e in &p4rt {
        let (name, ns, bytes) = (&e.name, e.median_ns_per_op, e.tuples_per_op);
        println!("{name}: {ns} ns/op, {bytes} B");
    }

    if let Some(path) = out {
        let ns: Vec<u64> = latencies.iter().map(|d| d.as_nanos() as u64).collect();
        let b_ns: Vec<u64> = b_latencies.iter().map(|d| d.as_nanos() as u64).collect();
        let mut entries = vec![
            BenchEntry::new(
                "port_scaling/nerpa_incremental",
                bench::median(&ns),
                tuples_per_op,
            ),
            BenchEntry::new("port_scaling/full_recompute", bench::median(&b_ns), 0),
        ];
        entries.extend(p4rt);
        bench::write_bench_json(&path, "port_scaling", &entries).expect("write bench json");
        println!("wrote {path}");
    }
    bench::dump_metrics_snapshot();
}
