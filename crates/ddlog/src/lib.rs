//! An incremental Datalog engine in the style of Differential Datalog
//! (DDlog), the control-plane language of the Full-Stack SDN paper
//! (HotNets '22).
//!
//! Programs are written in a typed Datalog dialect (see [`ast`] for the
//! grammar), compiled through type checking ([`typecheck`]) and
//! stratification ([`stratify`]) into per-rule dataflow pipelines
//! ([`plan`]), and evaluated *incrementally*: committing a
//! [`engine::Transaction`] propagates only the change, producing a stream
//! of output deltas ([`engine::TxnDelta`]).
//!
//! ```
//! use ddlog::engine::{Engine, Transaction};
//! use ddlog::value::Value;
//!
//! let mut e = Engine::from_source("
//!     input relation Edge(a: string, b: string)
//!     input relation GivenLabel(n: string, l: bigint)
//!     output relation Label(n: string, l: bigint)
//!     Label(n, l) :- GivenLabel(n, l).
//!     Label(b, l) :- Label(a, l), Edge(a, b).
//! ").unwrap();
//!
//! let mut t = Transaction::new();
//! t.insert("GivenLabel", vec![Value::str("a"), Value::Int(1)]);
//! t.insert("Edge", vec![Value::str("a"), Value::str("b")]);
//! let delta = e.commit(t).unwrap();
//! assert_eq!(delta.changes["Label"].len(), 2);
//! ```
#![warn(missing_docs)]

pub mod arrange;
pub mod ast;
pub mod cexpr;
pub mod chain;
pub mod engine;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod profile;
pub mod provenance;
pub mod recursive;
pub mod stdlib;
pub mod store;
pub mod stratify;
pub mod typecheck;
pub mod types;
pub mod value;
pub mod zset;

pub use engine::{Engine, Transaction, TxnDelta};
pub use error::{Error, Result};
pub use profile::{AuditConfig, OpCatalog, OpId, OpKind, OpMeta, OpStats, WorkProfile};
pub use provenance::{CandidateReport, WhyJust, WhyNode, WhyNot, WhySupport};
pub use types::Type;
pub use value::Value;
