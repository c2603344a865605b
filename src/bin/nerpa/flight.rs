//! `nerpa flight`: read the stack's black box.
//!
//! ```text
//! nerpa flight show crash.nfr                    # merged timeline
//! nerpa flight show a.nfr b.nfr --trace 1a2b     # one trace, across dumps
//! nerpa flight show crash.nfr --json             # machine-readable
//! nerpa flight show crash.nfr --diff healthy.nfr # what changed vs a good run
//! ```
//!
//! `--trace` also prints the trace's span tree, derived from the merged
//! dumps exactly as the live endpoint derives `/traces`.
//!
//! Exit codes: 0 = rendered, 1 = unreadable or malformed dump,
//! 2 = usage error.

use std::path::PathBuf;

use fullstack_sdn::flight::Timeline;

struct Args {
    dumps: Vec<PathBuf>,
    trace: Option<u64>,
    json: bool,
    diff: Option<PathBuf>,
}

const USAGE: &str =
    "usage: nerpa flight show <dump.nfr>... [--trace ID] [--json] [--diff healthy.nfr]\n\
    \n\
    show     merge the dumps into one causally ordered timeline\n\
    --trace  only events of one trace id (hex or decimal), then its span tree\n\
    --json   machine-readable output ({\"dumps\":[..],\"events\":[..]})\n\
    --diff   compare event kinds/counts against a healthy baseline dump";

fn parse_trace(s: &str) -> Option<u64> {
    s.parse()
        .ok()
        .or_else(|| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
}

fn parse_args(args: Vec<String>) -> Option<Args> {
    let mut it = args.into_iter();
    if it.next()?.as_str() != "show" {
        return None;
    }
    let mut args = Args {
        dumps: Vec::new(),
        trace: None,
        json: false,
        diff: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => args.trace = Some(parse_trace(&it.next()?)?),
            "--json" => args.json = true,
            "--diff" => args.diff = Some(PathBuf::from(it.next()?)),
            "--help" | "-h" => crate::usage(USAGE),
            flag if flag.starts_with("--") => return None,
            path => args.dumps.push(PathBuf::from(path)),
        }
    }
    (!args.dumps.is_empty()).then_some(args)
}

pub fn run(args: Vec<String>) -> Result<(), String> {
    let Some(args) = parse_args(args) else {
        crate::usage(USAGE)
    };
    let timeline = Timeline::load(&args.dumps)?;
    let tree = args.trace.and_then(|id| timeline.span_tree(id));
    let timeline = match args.trace {
        Some(id) => timeline.filter_trace(id),
        None => timeline,
    };
    if let Some(healthy_path) = &args.diff {
        let healthy = Timeline::load(std::slice::from_ref(healthy_path))?;
        print!("{}", timeline.diff(&healthy));
        return Ok(());
    }
    if args.json {
        println!("{}", timeline.render_json());
    } else {
        print!("{}", timeline.render_text());
        if let Some(tree) = tree {
            // A trace that settled carries its commit-to-data-plane lag
            // on its `p4.write` spans; the last switch to settle bounds it.
            let spans = tree.root.children.iter().flat_map(|s| &s.attrs);
            let lag = spans.filter(|(k, _)| k == "lag_ns").map(|(_, v)| *v).max();
            if let Some(lag_ns) = lag {
                println!(
                    "convergence lag: {:.3} ms (OVSDB ack to last switch write)",
                    lag_ns as f64 / 1e6
                );
            }
            print!("{}", tree.render_text());
        }
    }
    Ok(())
}
