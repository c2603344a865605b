//! The differential oracle: deterministic full-stack workload fuzzing.
//!
//! The oracle drives **two** controller implementations in lockstep from
//! the same seeded workload — the incremental Nerpa pipeline (OVSDB →
//! DDlog engine → P4Runtime writes) and the non-incremental
//! [`baselines::FullRecompute`] specification — each writing to its own
//! simulated switch, and asserts after every step that the installed
//! data-plane state is identical and that a battery of cross-plane
//! invariants holds. The incremental side is a `ShardSet` of N ≥ 1
//! engines over N switches ([`OracleConfig::shards`]): one harness,
//! every fault and bug mode at every N.
//!
//! Workloads interleave typed management-plane transactions (port
//! add/remove, access/trunk mode flips, VLAN and mirror changes) with
//! data-plane digest traffic (MAC learn/age) and, optionally, faults
//! derived from a [`chaos::FaultSchedule`] seed: management-link outages
//! (missed monitor updates, recovered by delta resync) and switch
//! restarts (recovered by table reconciliation).
//!
//! When a step fails, [`shrink::ddmin`] reduces the workload to a
//! minimal reproducing transaction sequence and the CLI prints a
//! replayable `oracle --seed N --steps M` command.

#![warn(missing_docs)]

pub mod harness;
mod model;
pub mod overload;
pub mod shrink;
pub mod workload;

pub use harness::{
    run_oracle, run_workload, InjectedBug, OracleConfig, OracleFailure, OracleReport, StepFailure,
};
pub use overload::{run_overload_oracle, OverloadReport};
pub use workload::{generate_workload, FaultEvent, FaultKind, FaultPlan, WorkloadOp};
