//! An OVSDB-style management-plane database (RFC 7047 subset).
//!
//! Provides the management plane of the Full-Stack SDN (Nerpa) stack: a
//! schema-checked, transactional database whose committed changes stream
//! to subscribers as *monitor* updates — exactly the interface the Nerpa
//! controller consumes.
//!
//! * [`datum`] — atoms, sets, maps, UUIDs, and their JSON wire forms.
//! * [`schema`] — database/table/column schemas with constraints.
//! * [`db`] — the transactional store: insert/select/update/mutate/delete
//!   /wait operations, atomicity, referential integrity, GC.
//! * [`monitor`] — change-stream subscriptions.
//! * [`rpc`], [`server`] — a JSON-RPC-style TCP protocol, server, and
//!   blocking client.
//! * [`wal`], [`snapshot`] — durability: a checksummed write-ahead log
//!   with crash recovery and atomic snapshot compaction.
#![warn(missing_docs)]

pub mod datum;
pub mod db;
pub mod monitor;
pub mod rpc;
pub mod schema;
pub mod server;
pub mod snapshot;
pub mod wal;

pub use datum::{Atom, AtomType, Datum, Uuid};
pub use db::{Database, RecoveryReport, RowChange, RowData};
pub use monitor::{
    decode_table_updates, decode_table_updates_into, Monitor, MonitorSelect, MonitorTable,
    TableUpdates,
};
pub use schema::{ColumnSchema, ColumnType, Schema, TableSchema};
pub use server::{Client, MonitorOverload, Server, TRACE_KEY};
pub use wal::{DurabilityConfig, FsyncPolicy, WalError};
