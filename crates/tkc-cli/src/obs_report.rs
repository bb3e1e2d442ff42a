//! `tkc obs report` — offline rendering of observability artifacts.
//!
//! Turns the two machine-facing outputs of a serve run into a short
//! human-readable snapshot:
//!
//! - the span JSONL written by `--trace-out` (one span per line, each
//!   carrying `"kind":"span"`; any other line is skipped), folded
//!   into a **top spans by self-time** table, where self-time is a
//!   span's duration minus the duration of its direct children — the
//!   time actually spent *in* that phase rather than below it;
//! - a Prometheus `/metrics` scrape (live via `--metrics-url` or a
//!   saved file), folded into SLO gauge lines and per-family latency
//!   histogram summaries with bucket-upper-bound p50/p90/p99.
//!
//! Everything here is pure text → text so it unit-tests without a
//! server; the network fetch lives in `commands::obs`.

use std::collections::BTreeMap;

/// One span record parsed back out of a trace JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    pub name: String,
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: u64,
    pub start_nanos: u64,
    pub duration_nanos: u64,
}

/// Extracts a JSON string field from a single-line record. The trace
/// writer emits flat objects with known keys, so a scan for
/// `"key":"..."` is exact for the fields we read (span names are static
/// identifiers, never escaped).
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = line.get(start..)?;
    let end = rest.find('"')?;
    rest.get(..end)
}

/// Extracts a JSON unsigned-number field from a single-line record.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line.get(start..)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Parses one trace JSONL line into a [`SpanRow`]; lines without
/// `"kind":"span"` (such as the op records of older trace files) and
/// malformed lines yield `None`.
pub fn parse_span_line(line: &str) -> Option<SpanRow> {
    if !line.contains("\"kind\":\"span\"") {
        return None;
    }
    Some(SpanRow {
        name: json_str(line, "name")?.to_string(),
        trace_id: u64::from_str_radix(json_str(line, "trace_id")?, 16).ok()?,
        span_id: u64::from_str_radix(json_str(line, "span_id")?, 16).ok()?,
        parent_id: u64::from_str_radix(json_str(line, "parent_id")?, 16).ok()?,
        start_nanos: json_u64(line, "start_nanos")?,
        duration_nanos: json_u64(line, "duration_nanos")?,
    })
}

/// Per-name aggregate over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanAgg {
    pub count: u64,
    pub total_nanos: u64,
    pub self_nanos: u64,
}

/// Aggregates spans by name with self-time attribution: each span
/// starts with `self = duration`, and every child subtracts its own
/// duration from its parent's self-time (parents are matched within
/// the same trace; a child recorded after its parent fell off the ring
/// simply attributes nothing).
pub fn aggregate_self_time(rows: &[SpanRow]) -> Vec<(String, SpanAgg)> {
    let mut self_of: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for r in rows {
        self_of.insert((r.trace_id, r.span_id), r.duration_nanos);
    }
    for r in rows {
        if r.parent_id != 0 {
            if let Some(parent_self) = self_of.get_mut(&(r.trace_id, r.parent_id)) {
                *parent_self = parent_self.saturating_sub(r.duration_nanos);
            }
        }
    }
    let mut by_name: BTreeMap<&str, SpanAgg> = BTreeMap::new();
    for r in rows {
        let a = by_name.entry(r.name.as_str()).or_default();
        a.count += 1;
        a.total_nanos += r.duration_nanos;
        a.self_nanos += self_of
            .get(&(r.trace_id, r.span_id))
            .copied()
            .unwrap_or(r.duration_nanos);
    }
    let mut out: Vec<(String, SpanAgg)> = by_name
        .into_iter()
        .map(|(n, a)| (n.to_string(), a))
        .collect();
    out.sort_by(|a, b| b.1.self_nanos.cmp(&a.1.self_nanos).then(a.0.cmp(&b.0)));
    out
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Renders the "top spans by self-time" table from raw JSONL text.
pub fn render_top_spans(jsonl: &str, top: usize) -> String {
    let rows: Vec<SpanRow> = jsonl.lines().filter_map(parse_span_line).collect();
    if rows.is_empty() {
        return "no span records in trace (run serve with --trace-out and \
                --slow-op-ms or --trace-out alone to record spans)\n"
            .to_string();
    }
    let traces: std::collections::BTreeSet<u64> = rows.iter().map(|r| r.trace_id).collect();
    let mut out = format!(
        "{} spans across {} traces; top {} by self-time:\n",
        rows.len(),
        traces.len(),
        top.min(aggregate_self_time(&rows).len())
    );
    out.push_str(&format!(
        "{:<24} {:>7} {:>12} {:>12} {:>12}\n",
        "span", "count", "self_ms", "total_ms", "mean_us"
    ));
    for (name, a) in aggregate_self_time(&rows).into_iter().take(top) {
        out.push_str(&format!(
            "{:<24} {:>7} {:>12.3} {:>12.3} {:>12.1}\n",
            name,
            a.count,
            ms(a.self_nanos),
            ms(a.total_nanos),
            a.total_nanos as f64 / 1e3 / a.count.max(1) as f64,
        ));
    }
    out
}

/// Splits a metrics sample line into `(name, labels, value)`;
/// `labels` keeps its braces and is empty for bare samples.
fn split_sample(line: &str) -> Option<(&str, &str, f64)> {
    if line.starts_with('#') || line.trim().is_empty() {
        return None;
    }
    let (series, value) = line.rsplit_once(' ')?;
    let value: f64 = value.trim().parse().ok()?;
    match series.find('{') {
        Some(b) => Some((series.get(..b)?, series.get(b..)?, value)),
        None => Some((series, "", value)),
    }
}

/// Renders the SLO gauge lines (`tkc_slo_*`) from a metrics scrape.
pub fn render_slo_status(metrics: &str) -> String {
    let mut lines: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("tkc_slo_"))
        .collect();
    if lines.is_empty() {
        return "no slo metrics in scrape (serve with --slo SPEC)\n".to_string();
    }
    lines.sort_unstable();
    let mut out = String::new();
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Pulls the `le` bound out of a bucket label set.
fn le_of(labels: &str) -> Option<f64> {
    let pat = "le=\"";
    let start = labels.find(pat)? + pat.len();
    let rest = labels.get(start..)?;
    let end = rest.find('"')?;
    let raw = rest.get(..end)?;
    if raw == "+Inf" {
        Some(f64::INFINITY)
    } else {
        raw.parse().ok()
    }
}

/// Drops the `le="..."` pair from a bucket label set so bucket series
/// group under their family key.
fn strip_le(labels: &str) -> String {
    let inner = labels.trim_start_matches('{').trim_end_matches('}');
    let kept: Vec<&str> = inner
        .split(',')
        .filter(|kv| !kv.starts_with("le=") && !kv.is_empty())
        .collect();
    if kept.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", kept.join(","))
    }
}

/// Bucket-upper-bound quantile: the `le` of the first cumulative bucket
/// covering `q * total` observations. Conservative (never understates)
/// and exact enough to cross-check client-side percentiles.
fn bucket_quantile(buckets: &[(f64, f64)], total: f64, q: f64) -> f64 {
    let want = q * total;
    for &(le, cum) in buckets {
        if cum >= want {
            return le;
        }
    }
    f64::INFINITY
}

/// Summarizes every `*_seconds` histogram family in a metrics scrape:
/// count, mean, and bucket-bound p50/p90/p99 in milliseconds.
pub fn render_histograms(metrics: &str) -> String {
    // family key = (metric base name, labels without le)
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut sums: BTreeMap<(String, String), f64> = BTreeMap::new();
    for line in metrics.lines() {
        let Some((name, labels, value)) = split_sample(line) else {
            continue;
        };
        if let Some(base) = name.strip_suffix("_seconds_bucket") {
            if let Some(le) = le_of(labels) {
                buckets
                    .entry((base.to_string(), strip_le(labels)))
                    .or_default()
                    .push((le, value));
            }
        } else if let Some(base) = name.strip_suffix("_seconds_count") {
            counts.insert((base.to_string(), labels.to_string()), value);
        } else if let Some(base) = name.strip_suffix("_seconds_sum") {
            sums.insert((base.to_string(), labels.to_string()), value);
        }
    }
    if buckets.is_empty() {
        return "no latency histograms in scrape\n".to_string();
    }
    let mut out = String::new();
    for (key, mut bs) in buckets {
        bs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = counts.get(&key).copied().unwrap_or_else(|| {
            bs.iter().map(|b| b.1).fold(0.0_f64, f64::max) // +Inf bucket is cumulative total
        });
        if total <= 0.0 {
            continue;
        }
        let mean_ms = sums.get(&key).copied().unwrap_or(0.0) / total * 1e3;
        let fmt_q = |q: f64| {
            let v = bucket_quantile(&bs, total, q);
            if v.is_infinite() {
                ">max".to_string()
            } else {
                format!("{:.3}", v * 1e3)
            }
        };
        out.push_str(&format!(
            "{}_seconds{} count={} mean_ms={:.3} p50_ms<={} p90_ms<={} p99_ms<={}\n",
            key.0,
            key.1,
            total as u64,
            mean_ms,
            fmt_q(0.50),
            fmt_q(0.90),
            fmt_q(0.99),
        ));
    }
    if out.is_empty() {
        "no populated latency histograms in scrape\n".to_string()
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn span_line(name: &str, trace: u64, span: u64, parent: u64, start: u64, dur: u64) -> String {
        format!(
            "{{\"at_unix_ms\":1,\"kind\":\"span\",\"name\":\"{name}\",\
             \"trace_id\":\"{trace:016x}\",\"span_id\":\"{span:016x}\",\
             \"parent_id\":\"{parent:016x}\",\"start_nanos\":{start},\
             \"duration_nanos\":{dur},\"attrs\":{{}}}}"
        )
    }

    #[test]
    fn parses_span_lines_and_skips_op_records() {
        let line = span_line("engine.apply", 1, 2, 1, 100, 50);
        let row = parse_span_line(&line).unwrap();
        assert_eq!(row.name, "engine.apply");
        assert_eq!((row.trace_id, row.span_id, row.parent_id), (1, 2, 1));
        assert_eq!((row.start_nanos, row.duration_nanos), (100, 50));
        let op = "{\"at_unix_ms\":1,\"op\":\"insert\",\"u\":1,\"v\":2}";
        assert!(parse_span_line(op).is_none());
        assert!(parse_span_line("not json").is_none());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        // root (100ns) -> apply (80ns) -> {wal (30ns), publish (10ns)}
        let rows: Vec<SpanRow> = [
            span_line("INSERT", 7, 1, 0, 0, 100),
            span_line("engine.apply", 7, 2, 1, 5, 80),
            span_line("engine.wal_append", 7, 3, 2, 6, 30),
            span_line("engine.publish", 7, 4, 2, 40, 10),
        ]
        .iter()
        .map(|l| parse_span_line(l).unwrap())
        .collect();
        let agg = aggregate_self_time(&rows);
        let get = |n: &str| agg.iter().find(|(name, _)| name == n).unwrap().1;
        assert_eq!(get("INSERT").self_nanos, 20); // 100 - 80
        assert_eq!(get("engine.apply").self_nanos, 40); // 80 - 30 - 10
        assert_eq!(get("engine.wal_append").self_nanos, 30);
        // Sorted by self-time descending.
        assert_eq!(agg[0].0, "engine.apply");
    }

    #[test]
    fn orphan_parent_keeps_full_duration() {
        let rows: Vec<SpanRow> = [span_line("parse", 9, 5, 4, 0, 25)]
            .iter()
            .map(|l| parse_span_line(l).unwrap())
            .collect();
        let agg = aggregate_self_time(&rows);
        assert_eq!(agg[0].1.self_nanos, 25);
    }

    #[test]
    fn top_spans_renders_table_or_empty_notice() {
        let jsonl = [
            span_line("INSERT", 1, 1, 0, 0, 100),
            span_line("engine.apply", 1, 2, 1, 5, 80),
        ]
        .join("\n");
        let table = render_top_spans(&jsonl, 10);
        assert!(table.contains("2 spans across 1 traces"));
        assert!(table.contains("engine.apply"));
        assert!(render_top_spans("", 10).contains("no span records"));
    }

    #[test]
    fn histogram_summary_reads_buckets_counts_and_sums() {
        let metrics = "\
# TYPE tkc_server_cmd_seconds histogram
tkc_server_cmd_seconds_bucket{cmd=\"INSERT\",le=\"0.001\"} 90
tkc_server_cmd_seconds_bucket{cmd=\"INSERT\",le=\"0.01\"} 99
tkc_server_cmd_seconds_bucket{cmd=\"INSERT\",le=\"+Inf\"} 100
tkc_server_cmd_seconds_sum{cmd=\"INSERT\"} 0.2
tkc_server_cmd_seconds_count{cmd=\"INSERT\"} 100
";
        let out = render_histograms(metrics);
        assert!(out.contains("tkc_server_cmd_seconds{cmd=\"INSERT\"} count=100"));
        assert!(out.contains("mean_ms=2.000"));
        assert!(out.contains("p50_ms<=1.000"));
        assert!(out.contains("p99_ms<=10.000"));
        assert!(render_histograms("").contains("no latency histograms"));
    }

    #[test]
    fn slo_status_filters_and_sorts_gauges() {
        let metrics = "\
tkc_slo_violation_ratio{cmd=\"INSERT\"} 0
tkc_slo_burn_rate{cmd=\"INSERT\"} 0
other_metric 5
";
        let out = render_slo_status(metrics);
        assert!(out.starts_with("tkc_slo_burn_rate"));
        assert!(!out.contains("other_metric"));
        assert!(render_slo_status("x 1").contains("no slo metrics"));
    }
}
