//! Deterministic fault injection for the Nerpa stack.
//!
//! The central piece is [`FaultProxy`], a TCP proxy that sits between the
//! controller and its peers (the OVSDB server, the P4 switch control
//! services) and executes a scripted [`FaultSchedule`]: drop a connection
//! after N messages, delay each message, truncate the final frame of a
//! connection mid-byte, or partition the link (refuse reconnects) for a
//! duration after a kill. Because the schedule is resolved through
//! `StdRng::seed_from_u64`, every chaos run is reproducible: the same
//! seed yields the same kill points and the same delays.
//!
//! The proxy understands both wire framings used in the stack —
//! newline-delimited JSON (OVSDB's JSON-RPC) and 4-byte length-prefixed
//! binary frames (the P4Runtime-style control protocol) — so "messages" are
//! protocol messages, not TCP segments, and fault points are exact.

#![warn(missing_docs)]

pub mod proxy;
pub mod schedule;

pub use proxy::{FaultProxy, ProxyStats};
pub use schedule::{
    ConnFault, Direction, FaultKind, FaultSchedule, Framing, ResolvedCrash, ResolvedFault,
};
