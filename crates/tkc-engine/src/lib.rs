//! Durable serving layer for Triangle K-Core decompositions.
//!
//! This crate wraps [`tkc_core`]'s incremental maintenance
//! (`DynamicTriangleKCore`) in a production-shaped engine:
//!
//! - [`wal`] — a write-ahead op log with checksummed, length-prefixed
//!   records. Recovery tolerates a torn final record (a crash mid-append)
//!   and replays every durable op; compaction folds the log into the
//!   packed store so restart cost stays bounded.
//! - [`engine`] — [`Engine`] applies ops under a single writer lock and
//!   publishes immutable [`EpochSnapshot`]s (graph + κ) that
//!   readers share by cloning an `Arc`; queries never wait on ingest.
//! - [`server`] — [`Server`], the `tkc serve` TCP front-end: a
//!   line-oriented text protocol whose writes (`INSERT`, `REMOVE`,
//!   `BATCH`) are acknowledged once durable, snapshot reads, and graceful
//!   shutdown.
//!
//! Everything is `std`-only: no async runtime, no external crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The serving crate holds the strictest panic-surface wall in the
// workspace: the tkc-analyze lint audits it source-level, and clippy
// escalates from the workspace-wide `warn` to `deny` here. Exceptions
// live next to their justification (`#[allow]` + `// analyze: allow`).
#![deny(clippy::expect_used, clippy::indexing_slicing)]

pub mod chaos;
pub mod engine;
pub mod error;
pub mod proto;
pub mod repl;
pub mod server;
pub mod wal;

/// Serializes tests that toggle the process-global `TraceBuffer` (span
/// tests would otherwise shear each other's records when the test
/// harness runs them on parallel threads).
#[cfg(test)]
pub(crate) fn global_trace_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock() // analyze: allow(lock-order): test-only serialization mutex, never held with product locks
        .unwrap_or_else(|p| p.into_inner())
}

pub use engine::{
    import_text_snapshot, ApplyReport, Engine, EngineConfig, EngineMetrics, EpochSnapshot,
    STATE_FILE, STORE_FILE, WAL_FILE,
};
pub use error::{EngineError, EngineState};
pub use repl::{start as start_replication, ReplOptions, ReplServer, Role};
pub use server::{DrainSummary, ServeOptions, Server};
pub use wal::{AppendInfo, Recovery, Wal, WalError, WalOp};
