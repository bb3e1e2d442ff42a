//! The repository benchmark.
//!
//! ```text
//! perfbench --workload query|churn|offline --seed N --seconds S --trace 0|1
//! perfbench --selftest
//! ```
//!
//! With `--trace 0` the workload drives the shipped `tkc` binary and
//! prints its end-to-end metrics; with `--trace 1` it replays the same
//! workload in-process, wraps each layer's public calls in spans, prints
//! the per-layer metrics and writes the spans as JSONL. The last stdout
//! line is the result object; the line before it records the host and
//! configuration. `perfbench/run.sh` builds everything and runs this.

mod churn;
mod inputs;
mod layers;
mod offline;
mod proc;
mod query;
mod selftest;
mod spans;
mod util;
mod wire;

use std::path::PathBuf;

use proc::{Peak, Spinners, WorkDir};
use spans::SpanLog;
use util::{result_line, Json, Metrics};

/// Everything one run needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Fraction of the bench graph's vertex count (1.0 = full size).
    pub scale: f64,
    pub tkc: PathBuf,
    pub work: WorkDir,
    /// Self-test only: shift every expected answer so each gate must trip.
    pub plant: bool,
    pub peak: Peak,
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub record: Vec<(&'static str, Json)>,
    pub spans: Option<SpanLog>,
}

pub const WORKLOADS: [&str; 3] = ["query", "churn", "offline"];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
}

pub fn run_workload(ctx: &Ctx, workload: &str, trace: bool) -> Result<Outcome, String> {
    match (workload, trace) {
        ("query", false) => query::timed(ctx),
        ("query", true) => query::traced(ctx),
        ("churn", false) => churn::timed(ctx),
        ("churn", true) => churn::traced(ctx),
        ("offline", false) => offline::timed(ctx),
        ("offline", true) => offline::traced(ctx),
        (other, _) => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// The commit under test: `git rev-parse HEAD` when the checkout is a
/// repository, else a hash of the sources it builds from.
fn commit() -> String {
    if std::path::Path::new(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = git {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::from("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("source-fnv64:{h:016x}")
}

/// The host and configuration line printed before the result.
fn record_line(
    ctx: &Ctx,
    workload: &str,
    trace: bool,
    out: &Outcome,
    spans_path: Option<&PathBuf>,
) -> String {
    let mut fields = vec![
        ("workload", Json::str(workload)),
        ("mode", Json::str(if trace { "traced" } else { "timed" })),
        ("seed", Json::Int(ctx.seed)),
        ("seconds", Json::Num(ctx.seconds)),
        ("scale", Json::Num(ctx.scale)),
        ("nproc", Json::Int(nproc() as u64)),
        ("commit", Json::str(commit())),
        ("decompose_threads", Json::Int(nproc() as u64)),
        ("fsync", Json::str("every WAL append")),
        ("epoch_ops", Json::Int(256)),
        ("compact_bytes", Json::Int(4 << 20)),
    ];
    fields.extend(out.record.iter().cloned());
    if let Some(p) = spans_path {
        fields.push(("spans_jsonl", Json::str(p.display().to_string())));
    }
    Json::obj(vec![("record", Json::obj(fields))]).render()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        let bad = |v: &str| format!("{flag}: cannot parse {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be > 0".into());
    }
    Ok(a)
}

pub fn new_ctx(seed: u64, seconds: f64, scale: f64, label: &str) -> Result<Ctx, String> {
    let target = target_dir();
    let tkc = target.join("release").join("tkc");
    if !tkc.is_file() {
        return Err(format!(
            "{} not found: build it with perfbench/run.sh",
            tkc.display()
        ));
    }
    Ok(Ctx {
        seed,
        seconds,
        scale,
        tkc,
        work: WorkDir::create(&target.join("perfbench-work"), label)?,
        plant: false,
        peak: Peak::default(),
    })
}

fn run(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("--selftest") => return selftest::run(),
        Some("--spin") => {
            Spinners::spin();
            return Ok(());
        }
        _ => {}
    }
    let a = parse_args(argv)?;
    let ctx = new_ctx(a.seed, a.seconds, 1.0, &a.workload)?;
    let spinners = Spinners::start(nproc());
    let mut out = run_workload(&ctx, &a.workload, a.trace)?;
    out.record
        .push(("idle_spinners", Json::Int(spinners.count() as u64)));
    drop(spinners);
    let spans_path = match &out.spans {
        Some(spans) => {
            let dir = target_dir().join("perfbench-spans");
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let path = dir.join(format!("{}-seed{}.jsonl", a.workload, a.seed));
            std::fs::write(&path, spans.to_jsonl())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Some(path)
        }
        None => None,
    };
    for (name, value, unit) in &out.metrics.0 {
        eprintln!("perfbench {}: {name} = {value:.6} {unit}", a.workload);
    }
    println!(
        "{}",
        record_line(&ctx, &a.workload, a.trace, &out, spans_path.as_ref())
    );
    println!("{}", result_line(out.attempted, out.failed, &out.metrics));
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
