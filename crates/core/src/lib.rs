//! # xsb-core — an SLG-WAM deductive database engine
//!
//! A Rust reproduction of the XSB system of Sagonas, Swift & Warren
//! (*XSB as an Efficient Deductive Database Engine*, SIGMOD 1994): a
//! WAM-derived abstract machine extended with tabling (SLG resolution), so
//! datalog programs terminate, avoid redundant computation, and evaluate
//! with polynomial data complexity — at compiled-Prolog speed.
//!
//! ```
//! use xsb_core::Engine;
//!
//! let mut e = Engine::new();
//! e.consult(r#"
//!     :- table path/2.
//!     path(X,Y) :- edge(X,Y).
//!     path(X,Y) :- path(X,Z), edge(Z,Y).
//!     edge(1,2). edge(2,3). edge(3,1).   % a cycle: SLD would loop
//! "#).unwrap();
//! assert_eq!(e.count("path(1, X)").unwrap(), 3);
//! ```
//!
//! Module map: [`cell`] tagged words · [`machine`] WAM state + freeze
//! registers + forward trail · [`instr`] instruction set · [`table`] table
//! space · [`compile`] clause compiler with hash and first-string indexing ·
//! [`emulate`] emulator & SLG scheduler · [`builtins`] builtin predicates ·
//! [`dynamic`] assert/retract with multi-field indexes · `edb` the one
//! write path every clause insert and removal takes · [`objfile`] bulk
//! load · [`engine`] public API.

pub mod builtins;
pub mod cell;
pub mod compile;
pub mod durable;
pub mod dynamic;
pub(crate) mod edb;
pub mod emulate;
pub mod engine;
pub mod engine_pool;
pub mod error;
pub mod instr;
pub mod machine;
pub mod objfile;
pub mod program;
pub mod shared;
pub mod table;

pub use durable::{DurableLog, RecoveryReport};
pub use engine::{Engine, Solution};
pub use engine_pool::{PoolBusy, PoolConfig, ServerPool, StreamItem, StreamKind, WireAnswer};
pub use error::EngineError;
pub use shared::SharedTableStore;
