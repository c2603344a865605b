//! `nerpa why`: answer "why is this rule installed?" (and "why not?")
//! from OVSDB row to P4 entry.
//!
//! ```text
//! nerpa why demo                        # explain every installed entry
//! nerpa why demo --table MacLearned     # one table only
//! nerpa why demo --json                 # machine-readable trees
//! nerpa why demo --not MacLearned 0 10 33 output 2
//! ```
//!
//! `demo` builds the built-in snvs stack (one switch, three access
//! ports on VLAN 10, one on VLAN 20, a trunk, and learned MACs from a
//! few frames), then resolves every installed P4 table entry and every
//! multicast group member back through the controller's table mappings
//! to a derivation tree rooted in the OVSDB-mirrored base facts. Each
//! supporting fact is annotated with the flight-recorder trace id that
//! last touched it.
//!
//! `--not <Relation> <value>...` instead asks why the given row is
//! absent: for every candidate rule the first failing literal is
//! reported. Values are parsed against the relation's declared column
//! types.
//!
//! Exit codes: 0 = all queried trees rooted in base facts,
//! 1 = a query failed or a tree was incomplete, 2 = usage error.

use ddlog::{Type, Value};
use p4sim::runtime::{FieldMatch, TableEntry};
use snvs::{PortMode, SnvsStack};

struct Args {
    table: Option<String>,
    json: bool,
    not: Option<(String, Vec<String>)>,
}

const USAGE: &str = "usage: nerpa why demo [--table NAME] [--json] [--not RELATION VALUE...]\n\
    \n\
    demo     build the snvs demo stack and explain its installed state\n\
    --table  only entries of this P4 table / output relation\n\
    --json   machine-readable derivation trees\n\
    --not    ask why RELATION does *not* contain the given row\n\
    \u{20}         (values are parsed per the relation's column types)";

fn parse_args(args: Vec<String>) -> Option<Args> {
    let mut it = args.into_iter();
    if it.next()?.as_str() != "demo" {
        return None;
    }
    let mut args = Args {
        table: None,
        json: false,
        not: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--table" => args.table = Some(it.next()?),
            "--json" => args.json = true,
            "--not" => {
                let rel = it.next()?;
                args.not = Some((rel, it.by_ref().collect()));
            }
            "--help" | "-h" => crate::usage(USAGE),
            _ => return None,
        }
    }
    Some(args)
}

/// Parse a textual column literal against its declared type.
fn parse_value(text: &str, ty: &Type) -> Result<Value, String> {
    let bad = |what: &str| format!("cannot parse `{text}` as {what}");
    match ty {
        Type::Bool => text.parse().map(Value::Bool).map_err(|_| bad("bool")),
        Type::Int => text.parse().map(Value::Int).map_err(|_| bad("bigint")),
        Type::Bit(w) => {
            let val: u128 = text.parse().map_err(|_| bad(&format!("bit<{w}>")))?;
            Ok(Value::Bit { width: *w, val })
        }
        Type::Str => Ok(Value::str(text)),
        other => Err(format!("unsupported column type {other:?} in --not row")),
    }
}

fn fmt_match(m: &FieldMatch) -> String {
    match m {
        FieldMatch::Exact { value } => format!("{value}"),
        FieldMatch::Lpm { value, prefix_len } => format!("{value}/{prefix_len}"),
        FieldMatch::Ternary { value, mask } => format!("{value}&{mask:#x}"),
    }
}

fn fmt_entry(e: &TableEntry) -> String {
    let keys: Vec<String> = e.matches.iter().map(fmt_match).collect();
    let params: Vec<String> = e.params.iter().map(|p| p.to_string()).collect();
    format!(
        "{}({}) -> {}({})",
        e.table,
        keys.join(", "),
        e.action,
        params.join(", ")
    )
}

/// The demo workload: one switch, access ports 1-3 on VLAN 10, port 4
/// on VLAN 20, a trunk on port 5, and enough traffic to learn two MACs.
fn demo_stack() -> Result<SnvsStack, String> {
    let mut stack = SnvsStack::new(1)?;
    for port in [1u16, 2, 3] {
        stack.add_port(port, PortMode::Access(10), None)?;
    }
    stack.add_port(4, PortMode::Access(20), None)?;
    stack.add_port(5, PortMode::Trunk(vec![10, 20]), None)?;
    let h1 = stack.add_host(1, 0, 1);
    let h2 = stack.add_host(2, 0, 2);
    let frame = |dst, src| {
        netsim::EthFrame::new(
            netsim::Mac::host(dst),
            netsim::Mac::host(src),
            netsim::ethertype::IPV4,
            b"nerpa why".to_vec(),
        )
    };
    // h1 -> h2 floods and teaches h1's port; h2 -> h1 teaches h2's.
    stack.send(h1, &frame(2, 1))?;
    stack.send(h2, &frame(1, 2))?;
    Ok(stack)
}

pub fn run(args: Vec<String>) -> Result<(), String> {
    let Some(args) = parse_args(args) else {
        crate::usage(USAGE)
    };
    let stack = demo_stack()?;
    let controller = &stack.controller;

    if let Some((relation, texts)) = &args.not {
        let schema = controller
            .engine()
            .relation_schema(relation)
            .map_err(|e| e.to_string())?;
        if texts.len() != schema.len() {
            return Err(format!(
                "`{relation}` has {} columns ({}), got {} values",
                schema.len(),
                schema
                    .iter()
                    .map(|(n, t)| format!("{n}: {t:?}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                texts.len()
            ));
        }
        let row: Vec<Value> = texts
            .iter()
            .zip(&schema)
            .map(|(t, (_, ty))| parse_value(t, ty))
            .collect::<Result<_, _>>()?;
        let report = controller
            .engine()
            .why_not(relation, row)
            .map_err(|e| e.to_string())?;
        if args.json {
            println!("{}", report.render_json());
        } else {
            print!("{}", report.render_text());
        }
        return Ok(());
    }

    let mut all_rooted = true;
    let mut json_trees = Vec::new();
    for sw in 0..stack.devices.len() {
        for entry in controller.desired_entries(sw)? {
            if args.table.as_deref().is_some_and(|t| t != entry.table) {
                continue;
            }
            let tree = controller.why_entry(sw, &entry)?;
            all_rooted &= tree.rooted_in_base();
            if args.json {
                json_trees.push(format!(
                    "{{\"switch\":{sw},\"entry\":{:?},\"why\":{}}}",
                    fmt_entry(&entry),
                    tree.render_json()
                ));
            } else {
                println!("switch {sw}: {}", fmt_entry(&entry));
                print!("{}", indent(&tree.render_text()));
                println!();
            }
        }
        if args.table.is_none() {
            for (group, ports) in controller.mcast_snapshot(sw) {
                for port in ports {
                    let tree = controller.why_mcast(sw, group, port)?;
                    all_rooted &= tree.rooted_in_base();
                    if args.json {
                        json_trees.push(format!(
                            "{{\"switch\":{sw},\"mcast\":[{group},{port}],\"why\":{}}}",
                            tree.render_json()
                        ));
                    } else {
                        println!("switch {sw}: mcast group {group} includes port {port}");
                        print!("{}", indent(&tree.render_text()));
                        println!();
                    }
                }
            }
        }
    }
    if args.json {
        println!("[{}]", json_trees.join(",\n "));
    }
    controller
        .engine()
        .validate_provenance()
        .map_err(|e| format!("provenance self-check failed: {e}"))?;
    if !all_rooted {
        return Err("some derivation trees are not rooted in base facts".to_string());
    }
    Ok(())
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("  {l}\n"))
        .collect::<Vec<_>>()
        .join("")
}
