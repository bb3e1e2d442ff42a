//! Bounded span ring.
//!
//! A [`TraceBuffer`] holds the last `capacity` finished request spans
//! ([`SpanRecord`]s). Opening a span while tracing is *disabled* costs
//! exactly one relaxed atomic load; when enabled, each finished span is
//! one short mutex push into the ring (oldest spans are overwritten).
//! Spans export as JSONL for `tkc obs report` and the `TRACE n` verb.

use crate::span::SpanRecord;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Capacity [`TraceBuffer::global`] is created with on first use.
static GLOBAL_CAPACITY: AtomicUsize = AtomicUsize::new(4096);

/// Sets the capacity of the process-wide buffer. Only effective before
/// the first [`TraceBuffer::global`] call — once the buffer exists its
/// ring is fixed, and later calls are silently ignored.
pub fn set_global_capacity(capacity: usize) {
    GLOBAL_CAPACITY.store(capacity.max(1), Ordering::Relaxed);
}

#[derive(Debug)]
struct Ring {
    spans: Vec<SpanRecord>,
    /// Index of the next slot to write; `total` counts lifetime spans.
    next: usize,
    total: u64,
}

impl Ring {
    /// The retained spans, oldest first, borrowed in place: until the
    /// ring first fills, `next` is the length and the first half is
    /// empty.
    fn oldest_first(&self) -> impl Iterator<Item = &SpanRecord> {
        let (newest, oldest) = self.spans.split_at(self.next.min(self.spans.len()));
        oldest.iter().chain(newest)
    }
}

/// A fixed-capacity ring of span records behind an atomic enable flag.
#[derive(Debug)]
pub struct TraceBuffer {
    enabled: AtomicBool,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl TraceBuffer {
    /// A disabled buffer holding at most `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> TraceBuffer {
        let capacity = capacity.max(1);
        TraceBuffer {
            enabled: AtomicBool::new(false),
            capacity,
            ring: Mutex::new(Ring {
                spans: Vec::with_capacity(capacity),
                next: 0,
                total: 0,
            }),
        }
    }

    /// The process-wide buffer spans record into (capacity from
    /// [`set_global_capacity`], default 4096; disabled until
    /// `tkc serve --trace-out` or a test enables it).
    pub fn global() -> &'static TraceBuffer {
        static GLOBAL: OnceLock<TraceBuffer> = OnceLock::new();
        GLOBAL.get_or_init(|| TraceBuffer::new(GLOBAL_CAPACITY.load(Ordering::Relaxed)))
    }

    /// Whether spans are currently kept. This is THE hot-path check:
    /// a single relaxed load, no fence, no branch history pollution.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Stores a finished span if enabled.
    #[inline]
    pub fn record_span(&self, span: SpanRecord) {
        if !self.enabled() {
            return;
        }
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.spans.len() < self.capacity {
            ring.spans.push(span);
        } else {
            let next = ring.next;
            if let Some(slot) = ring.spans.get_mut(next) {
                *slot = span;
            }
        }
        ring.next = (ring.next + 1) % self.capacity;
        ring.total += 1;
    }

    /// Lifetime span count (including overwritten ones).
    pub fn total_spans_recorded(&self) -> u64 {
        self.ring.lock().unwrap_or_else(|p| p.into_inner()).total
    }

    /// The retained spans, oldest first.
    pub fn drain_spans(&self) -> Vec<SpanRecord> {
        self.ring
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .oldest_first()
            .cloned()
            .collect()
    }

    /// The retained spans belonging to one trace, oldest first (used by
    /// the slow-op log to reconstruct a request's tree). Filters under
    /// the ring lock, so only the trace's own spans are copied.
    pub fn spans_for_trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        self.ring
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .oldest_first()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// Renders every retained span as JSONL, oldest first, one object
    /// per line with a trailing newline after each (`tkc serve
    /// --trace-out`).
    pub fn export_all_jsonl(&self) -> String {
        self.tail_jsonl(usize::MAX)
    }

    /// The last `n` lines of [`TraceBuffer::export_all_jsonl`] (the
    /// `TRACE <n>` wire verb). Only the newest `n` spans are copied out
    /// of the ring; they render after the lock is released.
    pub fn tail_jsonl(&self, n: usize) -> String {
        let spans: Vec<SpanRecord> = {
            let ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
            let skip = ring.spans.len().saturating_sub(n);
            ring.oldest_first().skip(skip).cloned().collect()
        };
        let mut out = String::with_capacity(spans.len() * 192);
        for s in &spans {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    /// Clears retained spans (the lifetime total is preserved).
    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.spans.clear();
        ring.next = 0;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;

    fn span(i: u64) -> SpanRecord {
        SpanRecord {
            at_unix_ms: i,
            trace_id: i % 2,
            span_id: i,
            parent_id: 0,
            name: "conn",
            start_nanos: i * 100,
            duration_nanos: 10,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn disabled_buffer_drops_everything() {
        let buf = TraceBuffer::new(8);
        assert!(!buf.enabled());
        buf.record_span(span(1));
        assert_eq!(buf.total_spans_recorded(), 0);
        assert!(buf.drain_spans().is_empty());
        assert!(buf.export_all_jsonl().is_empty());
    }

    #[test]
    fn ring_wraparound_keeps_newest_in_order() {
        let buf = TraceBuffer::new(4);
        buf.set_enabled(true);
        for i in 0..10 {
            buf.record_span(span(i));
        }
        assert_eq!(buf.total_spans_recorded(), 10);
        let ids: Vec<u64> = buf.drain_spans().iter().map(|s| s.span_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "oldest-first, newest retained");
    }

    // The ring once sat beside a per-op record ring; spans are now the
    // only record shape, so this checks the span ring's own wraparound
    // and the per-trace lookup over what it retained.
    #[test]
    fn span_ring_wraps_independently_of_op_ring() {
        let buf = TraceBuffer::new(4);
        buf.set_enabled(true);
        for i in 0..6 {
            buf.record_span(span(i));
        }
        assert_eq!(buf.total_spans_recorded(), 6);
        let ids: Vec<u64> = buf.drain_spans().iter().map(|s| s.span_id).collect();
        assert_eq!(ids, vec![2, 3, 4, 5], "oldest-first, newest retained");
        let odd: Vec<u64> = buf.spans_for_trace(1).iter().map(|s| s.span_id).collect();
        assert_eq!(odd, vec![3, 5]);
        assert_eq!(buf.spans_for_trace(0).len(), 2);
        assert!(buf.spans_for_trace(99).is_empty());
    }

    #[test]
    fn jsonl_export_is_one_object_per_line() {
        let buf = TraceBuffer::new(4);
        buf.set_enabled(true);
        buf.record_span(span(3));
        assert_eq!(
            buf.export_all_jsonl(),
            "{\"at_unix_ms\":3,\"kind\":\"span\",\"name\":\"conn\",\"trace_id\":\"0000000000000001\",\"span_id\":\"0000000000000003\",\"parent_id\":\"0000000000000000\",\"start_nanos\":300,\"duration_nanos\":10}\n"
        );
    }

    #[test]
    fn concurrent_recorders_account_for_every_record() {
        let buf = std::sync::Arc::new(TraceBuffer::new(64));
        buf.set_enabled(true);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let buf = std::sync::Arc::clone(&buf);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        buf.record_span(span(i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(buf.total_spans_recorded(), 400);
        assert_eq!(buf.drain_spans().len(), 64);
    }

    #[test]
    fn export_and_tail_are_span_lines_oldest_first() {
        let buf = TraceBuffer::new(8);
        buf.set_enabled(true);
        for i in [5, 2, 9] {
            buf.record_span(span(i));
        }
        let all = buf.export_all_jsonl();
        let lines: Vec<&str> = all.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.contains("\"kind\":\"span\"")));
        // Ring order, not timestamp order: the span recorded first leads.
        assert!(lines[0].contains("\"span_id\":\"0000000000000005\""));
        let tail = buf.tail_jsonl(2);
        assert_eq!(tail, format!("{}\n{}\n", lines[1], lines[2]));
        assert_eq!(buf.tail_jsonl(10), all);
        assert!(buf.tail_jsonl(0).is_empty());
    }

    #[test]
    fn tail_of_a_wrapped_ring_is_its_newest_spans() {
        let buf = TraceBuffer::new(4);
        buf.set_enabled(true);
        for i in 0..10 {
            buf.record_span(span(i));
        }
        // Slots now hold 8, 9, 6, 7: the tail crosses the wrap point.
        let all = buf.export_all_jsonl();
        let lines: Vec<&str> = all.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"span_id\":\"0000000000000006\""));
        assert_eq!(
            buf.tail_jsonl(3),
            format!("{}\n{}\n{}\n", lines[1], lines[2], lines[3])
        );
        assert_eq!(buf.tail_jsonl(1), format!("{}\n", lines[3]));
        assert!(lines[3].contains("\"span_id\":\"0000000000000009\""));
        assert_eq!(buf.tail_jsonl(4), all);
        let even: Vec<u64> = buf.spans_for_trace(0).iter().map(|s| s.span_id).collect();
        assert_eq!(even, vec![6, 8]);
    }

    #[test]
    fn clear_resets_retention_not_total() {
        let buf = TraceBuffer::new(4);
        buf.set_enabled(true);
        for i in 0..6 {
            buf.record_span(span(i));
        }
        buf.clear();
        assert!(buf.drain_spans().is_empty());
        assert_eq!(buf.total_spans_recorded(), 6);
        buf.record_span(span(7));
        assert_eq!(buf.drain_spans().len(), 1);
    }
}
