//! `nerpa`: one CLI over the stack's one event model and its derived
//! views.
//!
//! ```text
//! nerpa flight show crash.nfr [--trace ID] [--json] [--diff healthy.nfr]
//! nerpa why demo [--table NAME] [--json] [--not RELATION VALUE...]
//! nerpa prof [--seed N] [--steps M] [--top K] [--json] [--explain]
//! ```
//!
//! Each subcommand documents its own flags and exit codes; a missing
//! or unknown subcommand is a usage error (exit 2).

mod flight;
mod prof;
mod why;

const USAGE: &str = "usage: nerpa <flight|why|prof> ...\n\
    \n\
    flight   read flight-recorder dumps: merged timeline, one trace, diff\n\
    why      why is a P4 entry installed (or not), from OVSDB row to entry\n\
    prof     replay a seeded workload and print the hottest operators";

/// Print a usage text and exit 2.
fn usage(text: &str) -> ! {
    eprintln!("{text}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let sub = args.next().unwrap_or_default();
    let rest: Vec<String> = args.collect();
    let result = match sub.as_str() {
        "flight" => flight::run(rest),
        "why" => why::run(rest),
        "prof" => prof::run(rest),
        _ => usage(USAGE),
    };
    if let Err(e) = result {
        eprintln!("nerpa {sub}: {e}");
        std::process::exit(1);
    }
}
