//! Sharded control plane: partitioned DDlog engines behind an async
//! write pipeline.
//!
//! One Nerpa controller scales until a single engine commit — or a
//! single slow switch push — becomes the bottleneck. This crate splits
//! the control plane by switch: a deterministic [`partition::Router`]
//! assigns every OVSDB row and every digest to one of N shards (global
//! configuration broadcasts), each shard runs its own DDlog engine over
//! its own subset of switches, and each shard pushes its P4Runtime
//! writes from its own writer thread. Commits for shard A never wait on
//! device pushes for shard B, and a fault on one shard's switch leaves
//! the other shards committing undisturbed.
//!
//! Layers:
//!
//! * [`partition`] — the pure routing function (row keys → shard) plus
//!   the one row-change splitter;
//! * [`set::ShardSet`] — N controllers driven synchronously in
//!   lockstep; the deterministic core the differential oracle checks
//!   for cross-shard equivalence;
//! * [`runtime::ShardRuntime`] — the threaded deployment: per-shard
//!   input queues, worker threads owning the engines, writer threads
//!   owning the data planes, per-shard reconcile/resync, `shard`-labeled
//!   telemetry, and the `/shards` introspection page;
//! * [`overload`] — the backpressure layer: bounded queues with an
//!   [`overload::OverloadPolicy`] (block-with-deadline inputs,
//!   coalesce-per-switch writer jobs) and the writer-generation
//!   machinery the per-shard push watchdog uses to supersede and
//!   respawn a stuck writer thread.

pub mod overload;
pub mod partition;
pub mod runtime;
pub mod set;

pub use overload::OverloadPolicy;
pub use partition::{Assignment, PartitionSpec, RouteRule, Router};
pub use runtime::ShardRuntime;
pub use set::ShardSet;
