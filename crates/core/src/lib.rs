//! Nerpa: unified full-stack SDN programming (HotNets '22).
//!
//! This crate is the paper's primary contribution: a framework that
//! programs the management plane (an OVSDB-style database), the control
//! plane (an incremental DDlog-style program), and the data plane (P4
//! behavioral switches) **together**:
//!
//! * [`codegen`] generates the control-plane relation declarations from
//!   the management-plane schema and the P4 program, so the whole stack
//!   type-checks as one program;
//! * [`convert`] moves data between the planes without hand-written glue;
//! * [`controller`] is the runtime: OVSDB monitor updates and P4 digests
//!   drive incremental engine transactions whose output deltas become
//!   P4Runtime table writes.
//!
//! ```no_run
//! use nerpa::controller::{Controller, NerpaProgram};
//! use nerpa::codegen::CodegenOptions;
//!
//! let program = NerpaProgram {
//!     schema: ovsdb::Schema::parse(r#"{"name":"db","tables":{}}"#).unwrap(),
//!     p4info: p4sim::P4Info::from_program(
//!         &p4sim::parse_p4(p4sim::parser::DEMO).unwrap()),
//!     rules: String::new(),
//!     options: CodegenOptions::default(),
//! };
//! let controller = Controller::new(&program).unwrap();
//! ```
#![warn(missing_docs)]

pub mod codegen;
pub mod controller;
pub mod convert;
pub mod resync;

pub use codegen::{assemble_program, ovsdb2ddlog, p4info2ddlog, CodegenOptions, Generated};
pub use controller::{Controller, DataPlane, NerpaProgram};
pub use resync::{
    BackoffPolicy, MonitorConfig, OvsdbSupervisor, ReconcileReport, ResyncReport, SupervisorStats,
};
