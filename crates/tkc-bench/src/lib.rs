//! # tkc-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4) plus shared
//! plumbing: wall-clock timing, aligned text tables, and an output
//! directory for SVG/TSV artifacts.
//!
//! Environment knobs honored by every binary:
//!
//! * `TKC_SCALE` — global multiplier on each dataset's default scale
//!   (e.g. `TKC_SCALE=0.1` for a quick smoke run);
//! * `TKC_SEED` — base RNG seed (default 42);
//! * `TKC_OUT`  — artifact directory (default `target/experiments`).

// Experiment harness: figure/table binaries panic on malformed inputs by
// design (the run is the report). See DESIGN.md §11.
#![allow(clippy::indexing_slicing, clippy::expect_used)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Times a closure, returning its result and the elapsed wall time.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Seconds with adaptive precision, matching the paper's tables
/// (`0.005`, `0.70`, `561`).
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 0.01 {
        format!("{s:.3}")
    } else {
        format!("{s:.5}")
    }
}

/// Logical CPUs the process may use (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `host` object a `BENCH_*.json` record carries: logical CPUs the
/// process may use ([`nproc`]), the CPU model, the commit the binary was run from
/// (`git describe --always --dirty`: `-dirty` marks uncommitted edits;
/// `unknown` outside a checkout), and the run mode.
pub fn host_json(mode: &str) -> String {
    let nproc = nproc();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let bare = |s: &str| s.replace(['"', '\\'], "");
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"commit\":\"{}\",\"mode\":\"{}\"}}",
        bare(&cpu),
        bare(&commit),
        bare(mode)
    )
}

/// Global scale multiplier from `TKC_SCALE` (default 1.0).
pub fn scale_from_env() -> f64 {
    std::env::var("TKC_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Base seed from `TKC_SEED` (default 42).
pub fn seed_from_env() -> u64 {
    std::env::var("TKC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Artifact directory from `TKC_OUT` (default `target/experiments`),
/// created on first use.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("TKC_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/experiments"));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

/// Writes an artifact file into [`out_dir`] and reports its path.
pub fn write_artifact(name: &str, content: &str) -> PathBuf {
    let path = out_dir().join(name);
    std::fs::write(&path, content).expect("write artifact");
    println!("  wrote {}", path.display());
    path
}

/// Builds every Table I dataset at `scale_mult ×` its default scale.
/// Returns `(info, effective_scale, graph)` triples in Table I order.
pub fn build_all_datasets(
    scale_mult: f64,
    seed: u64,
) -> Vec<(tkc_datasets::DatasetInfo, f64, tkc_graph::Graph)> {
    tkc_datasets::DatasetId::all()
        .into_iter()
        .map(|id| {
            let info = id.info();
            let scale = info.default_scale * scale_mult;
            let g = tkc_datasets::build(id, scale, seed);
            (info, scale, g)
        })
        .collect()
}

/// A simple aligned text table for paper-style console output.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = line(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(out.trim_end().chars().count()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Renders as TSV for artifacts.
    pub fn to_tsv(&self) -> String {
        let mut out = self.headers.join("\t");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn fmt_secs_precision_bands() {
        assert_eq!(fmt_secs(Duration::from_secs(561)), "561");
        assert_eq!(fmt_secs(Duration::from_millis(2700)), "2.70");
        assert_eq!(fmt_secs(Duration::from_millis(27)), "0.027");
        assert_eq!(fmt_secs(Duration::from_micros(50)), "0.00005");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["Graph", "Time"]);
        t.row(vec!["PPI", "0.1"]);
        t.row(vec!["LiveJournal", "306"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Graph"));
        assert!(lines[2].ends_with("0.1"));
        assert_eq!(t.to_tsv().lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn timing_returns_value() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
