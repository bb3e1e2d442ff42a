//! `perfbench --selftest`: every workload in both modes on a reduced
//! streamed graph. Checks that each run prints exactly the metrics
//! `BENCHMARK.json` declares for its mode, each with its declared unit,
//! and that each correctness gate trips on a planted wrong expectation.

use crate::util::result_line;
use crate::{new_ctx, run_workload, WORKLOADS};

/// Vertex share of the bench graph used by the self-test.
const SCALE: f64 = 0.02;
const SECONDS: f64 = 1.5;

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`
/// (`"end_to_end"` or `"per_layer"`): every run must print exactly these.
fn declared(spec: &str, list: &str) -> Result<Vec<(String, String)>, String> {
    let start = spec
        .find(&format!("\"{list}\""))
        .ok_or_else(|| format!("BENCHMARK.json has no {list} list"))?;
    let body = &spec[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let field = |entry: &str, key: &str| {
        let rest = &entry[entry.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let out: Vec<(String, String)> = body
        .split('{')
        .skip(1)
        .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit")?)))
        .collect();
    if out.is_empty() {
        return Err(format!("BENCHMARK.json declares no {list} metric"));
    }
    Ok(out)
}

pub fn run() -> Result<(), String> {
    let spec =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let end_to_end = declared(&spec, "end_to_end")?;
    let per_layer = declared(&spec, "per_layer")?;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let ctx = new_ctx(7, SECONDS, SCALE, &format!("selftest-{workload}"))?;
            let out = run_workload(&ctx, workload, traced)
                .map_err(|e| format!("{workload} (traced {traced}): {e}"))?;
            let line = result_line(out.attempted, out.failed, &out.metrics);
            let want = if traced { &per_layer } else { &end_to_end };
            for (name, unit) in want {
                let ok = out
                    .metrics
                    .0
                    .iter()
                    .any(|(n, v, u)| n == name && u == unit && v.is_finite());
                if !ok || !line.contains(&format!("\"{name}\": {{\"value\": ")) {
                    return Err(format!(
                        "{workload} (traced {traced}) did not print {name} in {unit}: {line}"
                    ));
                }
            }
            if out.metrics.0.len() != want.len() {
                return Err(format!(
                    "{workload} (traced {traced}) printed metrics BENCHMARK.json does not declare: {line}"
                ));
            }
            if out.failed != 0 {
                return Err(format!(
                    "{workload} (traced {traced}) counted {} failed ops",
                    out.failed
                ));
            }
            eprintln!(
                "selftest: {workload} traced={traced}: {} metrics OK",
                out.metrics.0.len()
            );
        }
        let mut ctx = new_ctx(7, SECONDS, SCALE, &format!("selftest-{workload}-planted"))?;
        ctx.plant = true;
        match run_workload(&ctx, workload, false) {
            Ok(_) => {
                return Err(format!(
                    "{workload}: the correctness gate passed a planted wrong expectation"
                ))
            }
            Err(e) if e.contains("expected") || e.contains("reference") => {
                eprintln!("selftest: {workload} gate tripped as planted: {e}");
            }
            Err(e) => {
                return Err(format!(
                    "{workload}: planted run failed outside the gate: {e}"
                ))
            }
        }
    }
    println!(
        "selftest OK: {} workloads × 2 modes, every gate trips on a planted error",
        WORKLOADS.len()
    );
    Ok(())
}
