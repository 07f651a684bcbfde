//! # xsb-storage — the engine's write-ahead log
//!
//! The durability substrate under `xsb-core`'s durable EDB:
//!
//! * [`log`] — append-only write-ahead log framing (length-prefixed,
//!   checksummed records, LSN = byte offset) over a [`log::Vfs`] backing
//!   store (file, memory, or fault-injected).
//! * [`failpoint`] — deterministic fault injection ([`failpoint::FailpointFs`]):
//!   kill-at-byte, torn final sector, dropped fsyncs, crash images.

pub mod failpoint;
pub mod log;

pub use failpoint::{shared_failpoint, CrashMode, FailpointFs, SharedFailpoint};
pub use log::{scan_records, FileVfs, MemVfs, Vfs, Wal};
