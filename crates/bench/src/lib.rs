//! # xsb-bench — benchmark harness for the paper's evaluation
//!
//! Workload generators ([`workloads`]), experiment runners ([`runners`]),
//! the Table 3 page store ([`rdbms`]) and a deterministic in-tree PRNG
//! ([`prng`]), shared by the `harness` binary (which prints the paper's
//! tables/figures) and the dependency-free micro-benches. See DESIGN.md
//! §3 for the experiment ↔ paper mapping.

pub mod bulkload;
pub mod prng;
pub mod rdbms;
pub mod runners;
pub mod workloads;
