//! `NERPA_LOG`: which recorded events are also printed to stderr.
//!
//! A log line is a recorded event. Every catalogued kind has a constant
//! [`Level`] (`warn` for failures, `info` for lifecycle steps, `debug`
//! for per-op events), and the one recording path
//! ([`Telemetry::record`](crate::Telemetry::record)) prints an event as
//! `LEVEL <its .nfr line>` when its kind's level is within the maximum,
//! whether or not the flight recorder is enabled. The level check is
//! one relaxed atomic load, and at the default level (`warn`) the hot
//! paths print nothing at all. Set `NERPA_LOG` to one of `off`,
//! `error`, `warn`, `info`, `debug`, `trace` to change it; tests can
//! install a capture sink instead of stderr.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::recorder::Event;

/// Log severity, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Level {
    /// Logging disabled.
    Off = 0,
    /// Unrecoverable problems (no kind records one; `error` silences
    /// warnings).
    Error = 1,
    /// Recoverable problems (reconnects, retries, failed pushes).
    Warn = 2,
    /// Lifecycle events (connects, resyncs, reconciles).
    Info = 3,
    /// Per-transaction detail (hot paths; off by default).
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    /// The level's display name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Off => "OFF",
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        Some(match s.to_ascii_lowercase().as_str() {
            "off" | "none" => Level::Off,
            "error" => Level::Error,
            "warn" | "warning" => Level::Warn,
            "info" => Level::Info,
            "debug" => Level::Debug,
            "trace" => Level::Trace,
            _ => return None,
        })
    }
}

/// The default maximum level when `NERPA_LOG` is unset.
pub const DEFAULT_LEVEL: Level = Level::Warn;

const UNINIT: usize = usize::MAX;
static MAX_LEVEL: AtomicUsize = AtomicUsize::new(UNINIT);
static EMITTED: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Option<Vec<String>>> = Mutex::new(None);

fn init_level() -> usize {
    let lvl = std::env::var("NERPA_LOG")
        .ok()
        .and_then(|s| Level::parse(&s))
        .unwrap_or(DEFAULT_LEVEL) as usize;
    // Another thread may have initialized (or a test may have set an
    // explicit level) in the meantime; keep whatever is there.
    match MAX_LEVEL.compare_exchange(UNINIT, lvl, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => lvl,
        Err(cur) => cur,
    }
}

/// The current maximum level.
pub fn max_level() -> Level {
    let raw = MAX_LEVEL.load(Ordering::Relaxed);
    let raw = if raw == UNINIT { init_level() } else { raw };
    match raw {
        1 => Level::Error,
        2 => Level::Warn,
        3 => Level::Info,
        4 => Level::Debug,
        5 => Level::Trace,
        _ => Level::Off,
    }
}

/// Override the maximum level (takes precedence over `NERPA_LOG`).
pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as usize, Ordering::Relaxed);
}

/// Whether events at `level` are printed. One atomic load.
#[inline]
pub fn enabled(level: Level) -> bool {
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    let max = if max == UNINIT { init_level() } else { max };
    (level as usize) <= max
}

/// Total lines printed by this process. Tests assert this does not move
/// across hot paths at the default level.
pub fn records_emitted() -> u64 {
    EMITTED.load(Ordering::Relaxed)
}

/// Print one event at its kind's level (the recording path calls this
/// after checking [`enabled`]).
pub(crate) fn echo(level: Level, event: &Event) {
    let line = format!("{} {}", level.as_str(), event.to_json());
    EMITTED.fetch_add(1, Ordering::Relaxed);
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    match sink.as_mut() {
        Some(buf) => buf.push(line),
        None => eprintln!("{line}"),
    }
}

/// Run `f` with printed lines captured instead of written to stderr;
/// returns the result and the captured lines. One capture at a time:
/// concurrent captures share the one sink (intended for tests).
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    {
        let mut sink = SINK.lock().unwrap();
        *sink = Some(Vec::new());
    }
    let r = f();
    let lines = SINK.lock().unwrap().take().unwrap_or_default();
    (r, lines)
}
