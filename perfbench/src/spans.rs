//! The benchmark's own spans for the traced run. Spans stay in memory,
//! one log per thread, and are written as JSONL when the run ends. Spans
//! of one logical request share a trace id.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::util::Json;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// An open span; close it with [`SpanLog::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    trace: u64,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

/// One thread's spans. A disabled log records nothing and costs one
/// branch per call.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> SpanLog {
        epoch();
        SpanLog {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a root span: a new logical request with its own trace id.
    pub fn root(&self, name: &'static str) -> Open {
        let id = if self.enabled { fresh_id() } else { 0 };
        Open {
            trace: id,
            id,
            parent: None,
            name,
            start: Instant::now(),
        }
    }

    /// Opens a child of `parent` in the same trace.
    pub fn child(&self, parent: &Open, name: &'static str) -> Open {
        Open {
            trace: parent.trace,
            id: if self.enabled { fresh_id() } else { 0 },
            parent: Some(parent.id),
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open` and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let dur = open.start.elapsed();
        if self.enabled {
            self.spans.push(Span {
                trace: open.trace,
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start.duration_since(epoch()).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
        }
        dur
    }

    /// Records a finished root span that started at `start` (for
    /// open-loop requests, timed from their scheduled send time).
    pub fn record_root(&mut self, name: &'static str, start: Instant, dur: Duration) {
        if self.enabled {
            let id = fresh_id();
            self.spans.push(Span {
                trace: id,
                id,
                parent: None,
                name,
                start_ns: start.saturating_duration_since(epoch()).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
        }
    }

    /// Records a child of `parent` that the program timed itself (read
    /// from its counters), back-dated to end when `parent` ends.
    pub fn derived(
        &mut self,
        parent: &Open,
        parent_dur: Duration,
        name: &'static str,
        dur: Duration,
    ) {
        if !self.enabled {
            return;
        }
        let dur = dur.min(parent_dur);
        let parent_start = parent.start.duration_since(epoch()).as_nanos() as u64;
        let end = parent_start + parent_dur.as_nanos() as u64;
        self.spans.push(Span {
            trace: parent.trace,
            id: fresh_id(),
            parent: Some(parent.id),
            name,
            start_ns: end - dur.as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (overlapping children count once).
    pub fn self_times(&self) -> HashMap<u64, u64> {
        let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids.entry(p)
                    .or_default()
                    .push((s.start_ns, s.start_ns + s.dur_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
                let mut iv: Vec<(u64, u64)> = kids
                    .get(&s.id)
                    .map(|v| {
                        v.iter()
                            .map(|&(a, b)| (a.max(lo), b.min(hi)))
                            .filter(|(a, b)| a < b)
                            .collect()
                    })
                    .unwrap_or_default();
                iv.sort_unstable();
                let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
                for (a, b) in iv {
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.id, s.dur_ns.saturating_sub(covered))
            })
            .collect()
    }

    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::obj(vec![
                ("trace", Json::str(format!("{:016x}", s.trace))),
                ("span", Json::str(format!("{:016x}", s.id))),
                (
                    "parent",
                    s.parent
                        .map(|p| Json::str(format!("{p:016x}")))
                        .unwrap_or(Json::str("")),
                ),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns)),
                ("dur_ns", Json::Int(s.dur_ns)),
                ("self_ns", Json::Int(selfs.get(&s.id).copied().unwrap_or(0))),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut log = SpanLog::new(true);
        log.spans = vec![
            Span {
                trace: 1,
                id: 1,
                parent: None,
                name: "p",
                start_ns: 0,
                dur_ns: 100,
            },
            Span {
                trace: 1,
                id: 2,
                parent: Some(1),
                name: "c",
                start_ns: 10,
                dur_ns: 30,
            },
            Span {
                trace: 1,
                id: 3,
                parent: Some(1),
                name: "c",
                start_ns: 20,
                dur_ns: 30,
            },
            Span {
                trace: 1,
                id: 4,
                parent: Some(1),
                name: "c",
                start_ns: 90,
                dur_ns: 30,
            },
        ];
        let selfs = log.self_times();
        // Children cover 10..50 and 90..100: 50 ns of the parent's 100.
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 30);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let s = log.root("x");
        log.end(s);
        assert!(log.spans.is_empty());
    }
}
