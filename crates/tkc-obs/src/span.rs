//! Request-scoped spans: causal, tree-shaped timing records.
//!
//! A [`SpanGuard`] measures one stage of a request (connection, parse,
//! engine apply, WAL append, epoch publish, decompose phase). Guards
//! form a tree: each carries a process-unique span id, the id of its
//! parent, and the trace id of the root request, so a slow
//! `INSERT` can be attributed to fsync vs. cascade vs. publish instead of
//! showing up as one opaque latency sample.
//!
//! Parentage propagates through a thread-local stack — creating a child
//! span inside `Engine::apply` needs no plumbing through call signatures.
//!
//! Finished spans are recorded into [`TraceBuffer::global`], the only
//! thing that ring holds; while it is disabled a guard is a `None` and
//! costs one relaxed atomic load.

use crate::trace::TraceBuffer;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bound on per-span attributes; later [`SpanGuard::attr`] calls
/// are dropped so a buggy loop cannot balloon a record.
pub const MAX_ATTRS: usize = 4;

/// Process-unique id source for spans and traces (0 is reserved for
/// "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Renders an id as fixed-width lowercase hex (16 digits), the wire and
/// JSONL encoding of span/trace ids.
pub fn encode_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses an id previously rendered by [`encode_id`]. Rejects anything
/// that is not exactly 16 lowercase hex digits.
pub fn parse_id(s: &str) -> Option<u64> {
    if s.len() != 16
        || !s
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The identity a span propagates to its children: which trace it
/// belongs to and its own span id (the child's parent id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpanContext {
    /// Id shared by every span of one request.
    trace_id: u64,
    /// Id of this span.
    span_id: u64,
}

thread_local! {
    /// Innermost-last stack of open spans on this thread.
    static STACK: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open span on this thread, if any.
fn current() -> Option<SpanContext> {
    STACK
        .try_with(|s| s.try_borrow().ok().and_then(|v| v.last().copied()))
        .ok()
        .flatten()
}

fn stack_push(ctx: SpanContext) {
    let _ = STACK.try_with(|s| {
        if let Ok(mut v) = s.try_borrow_mut() {
            v.push(ctx);
        }
    });
}

fn stack_pop(ctx: SpanContext) {
    let _ = STACK.try_with(|s| {
        if let Ok(mut v) = s.try_borrow_mut() {
            if v.last() == Some(&ctx) {
                v.pop();
            } else if let Some(pos) = v.iter().rposition(|c| c == &ctx) {
                // Out-of-order drop (guards moved across scopes): remove
                // just this entry so siblings keep a correct parent.
                v.remove(pos);
            }
        }
    });
}

/// One finished span, as stored in the trace ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Wall-clock timestamp of the span end, ms since the Unix epoch.
    pub at_unix_ms: u64,
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 for a root span).
    pub parent_id: u64,
    /// Stage name (`"conn"`, `"INSERT"`, `"engine.apply"`, ...). Static
    /// so recording never allocates for the name.
    pub name: &'static str,
    /// Span start, nanoseconds on the [`crate::process_nanos`] clock.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub duration_nanos: u64,
    /// Up to [`MAX_ATTRS`] numeric attributes (bytes appended, ops in
    /// batch, triangles touched, ...).
    pub attrs: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// Renders the span as one JSON object (no trailing newline). The
    /// `"kind":"span"` field is part of the line format readers check.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(192);
        let _ = write!(
            s,
            "{{\"at_unix_ms\":{},\"kind\":\"span\",\"name\":\"{}\",\"trace_id\":\"{}\",\"span_id\":\"{}\",\"parent_id\":\"{}\",\"start_nanos\":{},\"duration_nanos\":{}",
            self.at_unix_ms,
            self.name,
            encode_id(self.trace_id),
            encode_id(self.span_id),
            encode_id(self.parent_id),
            self.start_nanos,
            self.duration_nanos
        );
        if !self.attrs.is_empty() {
            s.push_str(",\"attrs\":{");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{k}\":{v}");
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

#[derive(Debug)]
struct ActiveSpan {
    ctx: SpanContext,
    parent_id: u64,
    name: &'static str,
    start_nanos: u64,
    attrs: Vec<(&'static str, u64)>,
}

/// RAII handle for an open span. Created inert (a no-op `None`) when
/// [`TraceBuffer::global`] is disabled; otherwise records a
/// [`SpanRecord`] into the global ring on drop.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Opens a root span: a fresh trace id, no parent, regardless of any
    /// span already open on this thread.
    pub fn root(name: &'static str) -> SpanGuard {
        if !TraceBuffer::global().enabled() {
            return SpanGuard { inner: None };
        }
        Self::open(name, next_id(), 0)
    }

    /// Opens a child of the innermost open span on this thread, or a
    /// root span if none is open.
    pub fn child(name: &'static str) -> SpanGuard {
        if !TraceBuffer::global().enabled() {
            return SpanGuard { inner: None };
        }
        match current() {
            Some(parent) => Self::open(name, parent.trace_id, parent.span_id),
            None => Self::open(name, next_id(), 0),
        }
    }

    fn open(name: &'static str, trace_id: u64, parent_id: u64) -> SpanGuard {
        let ctx = SpanContext {
            trace_id,
            span_id: next_id(),
        };
        stack_push(ctx);
        SpanGuard {
            inner: Some(ActiveSpan {
                ctx,
                parent_id,
                name,
                start_nanos: crate::process_nanos(),
                attrs: Vec::new(),
            }),
        }
    }

    /// Attaches a numeric attribute (dropped past [`MAX_ATTRS`] or on an
    /// inert guard).
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(a) = self.inner.as_mut() {
            if a.attrs.len() < MAX_ATTRS {
                a.attrs.push((key, value));
            }
        }
    }

    /// The trace id this span belongs to (`None` when inert).
    pub fn trace_id(&self) -> Option<u64> {
        self.inner.as_ref().map(|a| a.ctx.trace_id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.inner.take() else {
            return;
        };
        let end = crate::process_nanos();
        stack_pop(a.ctx);
        TraceBuffer::global().record_span(SpanRecord {
            at_unix_ms: crate::unix_millis(),
            trace_id: a.ctx.trace_id,
            span_id: a.ctx.span_id,
            parent_id: a.parent_id,
            name: a.name,
            start_nanos: a.start_nanos,
            duration_nanos: end.saturating_sub(a.start_nanos),
            attrs: a.attrs,
        });
    }
}

/// Records an already-measured stage as a finished child of the
/// innermost open span (used where only a duration is available: WAL
/// fsync split out of `AppendInfo`, decompose phase timings).
pub fn record_manual(name: &'static str, duration: Duration) {
    let buf = TraceBuffer::global();
    if !buf.enabled() {
        return;
    }
    let (trace_id, parent_id) = match current() {
        Some(p) => (p.trace_id, p.span_id),
        None => (next_id(), 0),
    };
    let end = crate::process_nanos();
    let dur = duration.as_nanos() as u64;
    buf.record_span(SpanRecord {
        at_unix_ms: crate::unix_millis(),
        trace_id,
        span_id: next_id(),
        parent_id,
        name,
        start_nanos: end.saturating_sub(dur),
        duration_nanos: dur,
        attrs: Vec::new(),
    });
}

/// Renders the span tree of `trace_id` from the global ring, indented
/// by depth, durations in milliseconds, one span per line.
pub fn render_trace_tree(trace_id: u64) -> String {
    let spans = TraceBuffer::global().spans_for_trace(trace_id);
    let mut out = String::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in &spans {
        if s.parent_id == 0 || !spans.iter().any(|p| p.span_id == s.parent_id) {
            roots.push(s);
        }
    }
    roots.sort_by_key(|s| s.start_nanos);
    fn emit(out: &mut String, spans: &[SpanRecord], node: &SpanRecord, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(
            out,
            "{} {:.3}ms",
            node.name,
            node.duration_nanos as f64 / 1e6
        );
        for (k, v) in &node.attrs {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        let mut kids: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.parent_id == node.span_id && s.span_id != node.span_id)
            .collect();
        kids.sort_by_key(|s| s.start_nanos);
        for k in kids {
            emit(out, spans, k, depth + 1);
        }
    }
    for r in roots {
        emit(&mut out, &spans, r, 0);
    }
    out
}

/// The slow-op log: if `elapsed` is strictly over `threshold`, logs the
/// request's span tree at `warn` level and returns `true`. Called by the
/// server once per completed request when `--slow-op-ms` is set.
pub fn maybe_log_slow_op(
    name: &str,
    elapsed: Duration,
    threshold: Duration,
    trace_id: Option<u64>,
) -> bool {
    if elapsed <= threshold {
        return false;
    }
    let tree = match trace_id {
        Some(id) => {
            let t = render_trace_tree(id);
            if t.is_empty() {
                String::from("(no spans retained)")
            } else {
                t
            }
        }
        None => String::from("(spans disabled)"),
    };
    let trace = trace_id.map(encode_id).unwrap_or_default();
    crate::warn!(
        "slow op {name} took {:.3}ms (threshold {:.3}ms) trace={trace}\n{}",
        elapsed.as_secs_f64() * 1e3,
        threshold.as_secs_f64() * 1e3,
        tree.trim_end()
    );
    true
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serializes tests that toggle the process-global trace buffer.
    fn global_guard() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn id_encoding_is_16_hex_digits_and_round_trips() {
        assert_eq!(encode_id(0), "0000000000000000");
        assert_eq!(encode_id(u64::MAX), "ffffffffffffffff");
        assert_eq!(parse_id("000000000000002a"), Some(42));
        assert_eq!(parse_id("2a"), None, "must be fixed width");
        assert_eq!(parse_id("000000000000002A"), None, "lowercase only");
        assert_eq!(parse_id("00000000000000zz"), None);
        for id in [0u64, 1, 42, 1 << 33, u64::MAX] {
            assert_eq!(parse_id(&encode_id(id)), Some(id));
        }
    }

    #[test]
    fn disabled_guards_are_inert() {
        let _g = global_guard();
        TraceBuffer::global().set_enabled(false);
        let before = TraceBuffer::global().total_spans_recorded();
        {
            let mut s = SpanGuard::root("conn");
            s.attr("bytes", 1);
            assert!(s.trace_id().is_none());
            let c = SpanGuard::child("parse");
            assert!(c.trace_id().is_none());
        }
        assert_eq!(TraceBuffer::global().total_spans_recorded(), before);
        assert!(current().is_none());
    }

    #[test]
    fn guards_record_a_linked_tree() {
        let _g = global_guard();
        let buf = TraceBuffer::global();
        buf.set_enabled(true);
        let trace_id;
        {
            let mut root = SpanGuard::root("conn");
            root.attr("fd", 7);
            trace_id = root.trace_id().unwrap();
            {
                let child = SpanGuard::child("INSERT");
                assert_eq!(child.trace_id(), Some(trace_id));
                let grand = SpanGuard::child("engine.apply");
                assert_eq!(grand.trace_id(), Some(trace_id));
                drop(grand);
                drop(child);
            }
            // A manual record back-dates its start by its duration; sleep
            // first so it still lands inside the root's bounds.
            std::thread::sleep(Duration::from_millis(2));
            record_manual("engine.wal_fsync", Duration::from_micros(5));
        }
        buf.set_enabled(false);
        let spans = buf.spans_for_trace(trace_id);
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == "conn").unwrap();
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.attrs, vec![("fd", 7)]);
        let insert = spans.iter().find(|s| s.name == "INSERT").unwrap();
        assert_eq!(insert.parent_id, root.span_id);
        let apply = spans.iter().find(|s| s.name == "engine.apply").unwrap();
        assert_eq!(apply.parent_id, insert.span_id);
        let fsync = spans.iter().find(|s| s.name == "engine.wal_fsync").unwrap();
        assert_eq!(fsync.parent_id, root.span_id);
        // Children start no earlier and end no later than the root.
        for s in &spans {
            assert!(s.start_nanos >= root.start_nanos);
            assert!(
                s.start_nanos + s.duration_nanos <= root.start_nanos + root.duration_nanos,
                "{} escapes root bounds",
                s.name
            );
        }
        let tree = render_trace_tree(trace_id);
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("conn "), "{tree}");
        assert!(lines.iter().any(|l| l.starts_with("  INSERT")), "{tree}");
        assert!(
            lines.iter().any(|l| l.starts_with("    engine.apply")),
            "{tree}"
        );
        buf.clear();
    }

    #[test]
    fn span_json_shape() {
        let rec = SpanRecord {
            at_unix_ms: 9,
            trace_id: 1,
            span_id: 2,
            parent_id: 0,
            name: "conn",
            start_nanos: 100,
            duration_nanos: 50,
            attrs: vec![("bytes", 12)],
        };
        assert_eq!(
            rec.to_json(),
            "{\"at_unix_ms\":9,\"kind\":\"span\",\"name\":\"conn\",\"trace_id\":\"0000000000000001\",\"span_id\":\"0000000000000002\",\"parent_id\":\"0000000000000000\",\"start_nanos\":100,\"duration_nanos\":50,\"attrs\":{\"bytes\":12}}"
        );
    }

    #[test]
    fn attrs_are_bounded() {
        let _g = global_guard();
        let buf = TraceBuffer::global();
        buf.set_enabled(true);
        let trace_id;
        {
            let mut s = SpanGuard::root("conn");
            trace_id = s.trace_id().unwrap();
            for i in 0..(MAX_ATTRS as u64 + 3) {
                s.attr("k", i);
            }
        }
        buf.set_enabled(false);
        let spans = buf.spans_for_trace(trace_id);
        assert_eq!(spans[0].attrs.len(), MAX_ATTRS);
        buf.clear();
    }

    #[test]
    fn slow_op_log_fires_exactly_over_threshold() {
        let _g = global_guard();
        let lines = std::sync::Arc::new(Mutex::new(Vec::<String>::new()));
        let captured = std::sync::Arc::clone(&lines);
        crate::logger::set_sink(Some(Box::new(move |l| {
            captured
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(l.to_string());
        })));
        let th = Duration::from_millis(5);
        assert!(!maybe_log_slow_op(
            "INSERT",
            Duration::from_millis(4),
            th,
            None
        ));
        assert!(
            !maybe_log_slow_op("INSERT", th, th, None),
            "equal to threshold must not fire"
        );
        assert!(maybe_log_slow_op(
            "INSERT",
            Duration::from_millis(6),
            th,
            None
        ));
        crate::logger::set_sink(None);
        let lines = lines.lock().unwrap();
        let slow: Vec<&String> = lines.iter().filter(|l| l.contains("slow op")).collect();
        assert_eq!(slow.len(), 1, "{lines:?}");
        assert!(
            slow[0].contains("slow op INSERT took 6.000ms"),
            "{}",
            slow[0]
        );
    }
}
