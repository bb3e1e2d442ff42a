//! # tkc-obs — unified tracing + metrics for the Triangle K-Core stack
//!
//! Every layer of the system (CSR kernel, worker pool, durable engine,
//! TCP front-end, CLI) records into this crate rather than hand-rolling
//! counters. It is deliberately `std`-only — no external crates, no async
//! runtime — and every recording path is a handful of relaxed atomic
//! operations:
//!
//! - [`registry`] — [`MetricsRegistry`]: named atomic counters, gauges,
//!   and log2-bucketed latency histograms with p50/p90/p99/max quantile
//!   estimation, rendered in Prometheus text exposition format.
//! - [`trace`] — [`TraceBuffer`]: a bounded ring of finished request
//!   spans with JSONL export. The *disabled* path is a single relaxed
//!   atomic load — hot loops pay nothing unless an operator turns
//!   tracing on.
//! - [`logger`] — a leveled stderr logger controlled by the `TKC_LOG`
//!   environment variable (`error`/`warn`/`info`/`debug`/`trace`), so
//!   server diagnostics are filterable instead of unconditional
//!   `eprintln!` noise.
//! - [`span`] — [`SpanGuard`]: request-scoped span trees (trace id +
//!   span id + parent id, monotonic timestamps, bounded attrs) recorded
//!   into the [`TraceBuffer`], plus the `--slow-op-ms` slow-op log that
//!   prints a completed request's span tree.
//! - [`slo`] — [`SloTracker`]: per-verb rolling-window latency
//!   objectives with error-budget burn-rate gauges on `/metrics`.
//! - [`http`] — a tiny `std`-only HTTP/1.1 responder serving `/metrics`
//!   for Prometheus scrapes (`tkc serve --metrics-addr`).
//!
//! ## Overhead discipline
//!
//! Instrumentation must never tax the kernels it observes:
//!
//! - metrics handles are pre-registered `Arc`s; recording is 1–4 relaxed
//!   `fetch_add`s, no locks, no allocation;
//! - a span checks one relaxed [`TraceBuffer::enabled`] load before
//!   opening;
//! - kernel-level timers (worker pool, decompose phases) can be switched
//!   off wholesale via [`set_kernel_instrumentation`], which is how
//!   `bench_snapshot` *measures* the disabled overhead and asserts it
//!   stays under 2% on `support_csr_parallel`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod logger;
pub mod registry;
pub mod slo;
pub mod span;
pub mod trace;

pub use logger::Level;
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use slo::{SloTarget, SloTracker};
pub use span::{SpanGuard, SpanRecord};
pub use trace::TraceBuffer;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (a stable monotonic
/// epoch for spans and snapshot-age arithmetic).
pub fn process_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Milliseconds since the Unix epoch (wall clock, for trace timestamps
/// and log lines).
pub fn unix_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

static KERNEL_INSTRUMENTATION: AtomicBool = AtomicBool::new(true);

/// Whether kernel-level timers (worker-pool busy time, decompose phase
/// histograms) record into the global registry. One relaxed load.
#[inline]
pub fn kernel_instrumentation_enabled() -> bool {
    KERNEL_INSTRUMENTATION.load(Ordering::Relaxed)
}

/// Turns kernel-level timers on/off process-wide. `bench_snapshot` uses
/// this to measure the instrumented-vs-stripped delta; production code
/// leaves it on.
pub fn set_kernel_instrumentation(enabled: bool) {
    KERNEL_INSTRUMENTATION.store(enabled, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;

    #[test]
    fn process_nanos_is_monotone() {
        let a = process_nanos();
        let b = process_nanos();
        assert!(b >= a);
    }

    #[test]
    fn kernel_instrumentation_toggles() {
        assert!(kernel_instrumentation_enabled());
        set_kernel_instrumentation(false);
        assert!(!kernel_instrumentation_enabled());
        set_kernel_instrumentation(true);
        assert!(kernel_instrumentation_enabled());
    }
}
