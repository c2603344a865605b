//! E3 (§4.3): the lines-of-code comparison. The paper reports snvs as
//! 350 LOC of DDlog + 300 of P4 + 5 OVSDB tables + 50 of glue, "at least
//! an order of magnitude less than an incremental implementation of
//! similar features in Java or C".
//!
//! We measure our own artifacts the same way: the three things an snvs
//! programmer writes, the relation declarations Nerpa generates for them,
//! and — as the hand-written comparison — this repository's
//! ovn-controller-style incremental baseline implementing the same
//! features.
//!
//! It also prints this repository's own size: non-blank, non-comment
//! Rust lines per crate, `src` and `tests` separately, so a PR quotes
//! its LOC delta from a tool (ROADMAP "least code"). Pass a checkout's
//! root as the positional argument to measure that tree instead of this
//! one; `--out BENCH_loc.json` also writes the per-crate table as JSON.

use std::path::Path;

use bench::print_table;
use nerpa::codegen::{ovsdb2ddlog, p4info2ddlog, CodegenOptions};
use serde_json::json;

const HANDWRITTEN_SRC: &str = include_str!("../../../baselines/src/handwritten.rs");

fn loc(s: &str) -> usize {
    s.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("//!"))
        .count()
}

/// Non-blank, non-comment lines of every `.rs` file under `dir`.
fn dir_loc(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| e.path())
        .map(|p| match p.extension() {
            _ if p.is_dir() => dir_loc(&p),
            Some(ext) if ext == "rs" => loc(&std::fs::read_to_string(&p).unwrap_or_default()),
            _ => 0,
        })
        .sum()
}

/// `(crate, src LOC, tests LOC)` for the root package and every crate
/// under `crates/`, sorted by name.
fn crate_loc(root: &Path) -> Vec<(String, usize, usize)> {
    let mut dirs = vec![("(root)".to_string(), root.to_path_buf())];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten().filter(|e| e.path().is_dir()) {
            dirs.push((e.file_name().to_string_lossy().into_owned(), e.path()));
        }
    }
    dirs.sort();
    dirs.into_iter()
        .map(|(name, dir)| (name, dir_loc(&dir.join("src")), dir_loc(&dir.join("tests"))))
        .collect()
}

fn main() {
    let mut root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string();
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next(),
            _ => root = arg,
        }
    }
    let per_crate = crate_loc(Path::new(&root));
    let mut rows: Vec<Vec<String>> = per_crate
        .iter()
        .map(|(name, src, tests)| vec![name.clone(), src.to_string(), tests.to_string()])
        .collect();
    let total = |f: fn(&(String, usize, usize)) -> usize| per_crate.iter().map(f).sum::<usize>();
    rows.push(vec![
        "total".into(),
        total(|c| c.1).to_string(),
        total(|c| c.2).to_string(),
    ]);
    print_table(
        &format!("Rust lines of code per crate (non-blank, non-comment) in {root}"),
        &["crate", "src", "tests"],
        &rows,
    );
    if let Some(path) = out {
        let crates: Vec<serde_json::Value> = per_crate
            .iter()
            .map(|(name, src, tests)| json!({"crate": name, "src": src, "tests": tests}))
            .collect();
        let doc = json!({
            "bench": "loc",
            "crates": crates,
            "total": {"src": total(|c| c.1), "tests": total(|c| c.2)},
        });
        std::fs::write(&path, format!("{doc:#}\n")).expect("write loc json");
        println!("wrote {path}");
    }
    println!();

    println!("E3: snvs artifact sizes (paper §4.3: 350 DDlog + 300 P4 + schema + 50 glue = ~700)");

    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).unwrap();
    let program = p4sim::parse_p4(snvs::assets::SNVS_P4).unwrap();
    let p4info = p4sim::P4Info::from_program(&program);
    let gen_schema = ovsdb2ddlog(&schema);
    let gen_p4 = p4info2ddlog(&p4info, CodegenOptions::default());

    let rules = loc(snvs::assets::SNVS_RULES);
    let p4 = loc(snvs::assets::SNVS_P4);
    let schema_loc = loc(snvs::assets::SNVS_SCHEMA);
    let generated = loc(&gen_schema.source) + loc(&gen_p4.source);
    let unified_total = rules + p4 + schema_loc + generated;
    let handwritten = loc(HANDWRITTEN_SRC);

    print_table(
        "lines of code (non-blank, non-comment)",
        &["artifact", "ours", "paper"],
        &[
            vec![
                "DDlog rules (hand-written)".into(),
                rules.to_string(),
                "250".into(),
            ],
            vec![
                "DDlog relations (generated)".into(),
                generated.to_string(),
                "100".into(),
            ],
            vec!["P4 program".into(), p4.to_string(), "300".into()],
            vec!["OVSDB schema".into(), schema_loc.to_string(), "~30".into()],
            vec!["glue written by hand".into(), "0".into(), "50".into()],
            vec![
                "unified total".into(),
                unified_total.to_string(),
                "~700".into(),
            ],
            vec![
                "hand-written incremental (same features)".into(),
                handwritten.to_string(),
                "(paper: ≥10x the unified total, in Java/C)".into(),
            ],
        ],
    );
    println!(
        "\nshape check: the declarative control plane is {:.1}x smaller than the \
         hand-written incremental controller covering the same features \
         ({} vs {} LOC of control logic).",
        handwritten as f64 / rules as f64,
        rules,
        handwritten
    );
    bench::dump_metrics_snapshot();
}
