//! `offline`: analytics with no server. `tkc decompose` on the edge list
//! at 1 thread and at nproc threads (alternating), then `tkc store pack`.

use std::collections::HashMap;
use std::time::Instant;

use tkc_store::{PageCacheConfig, StoreReader};

use crate::inputs::{config, Base};
use crate::layers;
use crate::proc::run_tool;
use crate::spans::SpanLog;
use crate::util::{median, pair_key, Json, Metrics};
use crate::{nproc, Ctx, Outcome};

/// Warm-up decompositions; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// Decompositions per thread count, at least; the median of each is
/// reported.
pub const MIN_RUNS: usize = 6;
/// `tkc store info` runs on the packed store; `restart_s` is the median.
pub const REOPEN_REPS: usize = 5;

/// Writes the seed's streamed graph as a SNAP edge list.
fn write_edges(ctx: &Ctx) -> Result<std::path::PathBuf, String> {
    let path = ctx.work.path("edges.txt");
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    tkc_datasets::write_snap(&config(ctx.seed, ctx.scale), file).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Set-up: write the edge list (untimed: that is the harness's work),
/// then [`SETUP_REPS`] warm-up `tkc decompose --threads 1` runs so the
/// page cache and lazy set-up are settled before the measured runs.
/// Returns the path, each warm-up's time and the warm-up outputs
/// (checked with the measured ones).
fn setup(ctx: &Ctx) -> Result<(std::path::PathBuf, Vec<f64>, Vec<String>), String> {
    let path = write_edges(ctx)?;
    let edges = path.to_str().ok_or("non-UTF-8 path")?;
    let (mut times, mut outputs) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (t, out) = run_tool(&ctx.tkc, &["decompose", edges, "--threads", "1"], &ctx.peak)?;
        times.push(t.as_secs_f64());
        outputs.push(out);
    }
    Ok((path, times, outputs))
}

/// The summary `tkc decompose` prints: (max κ, κ histogram).
fn parse_summary(out: &str) -> Result<(u32, Vec<(u32, usize)>), String> {
    let max = out
        .lines()
        .find_map(|l| l.split("max κ = ").nth(1))
        .and_then(|r| r.split_whitespace().next())
        .and_then(|k| k.parse().ok())
        .ok_or("decompose printed no max κ")?;
    let hist = out
        .lines()
        .filter_map(|l| {
            let rest = l.trim().strip_prefix("κ =")?;
            let (k, count) = rest.split_once(':')?;
            Some((k.trim().parse().ok()?, count.trim().parse().ok()?))
        })
        .collect();
    Ok((max, hist))
}

fn reference_summary(base: &Base, planted: bool) -> (u32, Vec<(u32, usize)>) {
    let hist = base
        .d
        .histogram()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(k, &c)| (k as u32, c))
        .collect();
    (base.max_kappa() + u32::from(planted), hist)
}

/// Per-edge κ from `tkc decompose --top <all>`.
fn parse_listing(out: &str) -> HashMap<u64, u32> {
    out.lines()
        .filter_map(|l| {
            let l = l.trim().strip_prefix('(')?;
            let (pair, k) = l.split_once(')')?;
            let (u, v) = pair.split_once(',')?;
            let k = k.trim().strip_prefix("κ =")?.trim().parse().ok()?;
            Some((pair_key(u.trim().parse().ok()?, v.trim().parse().ok()?), k))
        })
        .collect()
}

/// Correctness gate: κ is bit-identical at 1 and nproc threads, equals
/// the harness's decomposition, and equals the packed store's κ.
fn check(ctx: &Ctx, base: &Base, edges: &str, store: &std::path::Path) -> Result<(), String> {
    let all = base.edges.len().to_string();
    let mut listings = Vec::new();
    for t in [1, nproc()] {
        let (_, out) = run_tool(
            &ctx.tkc,
            &[
                "decompose",
                edges,
                "--threads",
                &t.to_string(),
                "--top",
                &all,
            ],
            &ctx.peak,
        )?;
        listings.push(parse_listing(&out));
    }
    if listings[0] != listings[1] {
        return Err(format!(
            "κ at 1 thread differs from κ at {} threads",
            nproc()
        ));
    }
    let reader = StoreReader::open(store, PageCacheConfig::default()).map_err(|e| e.to_string())?;
    let g = reader.load_graph().map_err(|e| e.to_string())?;
    let kappa = reader.read_kappa().map_err(|e| e.to_string())?;
    let listing = &listings[0];
    if listing.len() != base.edges.len() || g.num_edges() != base.edges.len() {
        return Err(format!(
            "edge counts disagree: listing {}, store {}, reference {}",
            listing.len(),
            g.num_edges(),
            base.edges.len()
        ));
    }
    let bump = u32::from(ctx.plant);
    for (_, u, v) in g.edges() {
        let key = pair_key(u.0, v.0);
        let want = base.kappa(u.0, v.0).map(|k| k + bump);
        let stored = g
            .edge_between(u, v)
            .and_then(|e| kappa.get(e.index()).copied());
        if listing.get(&key).copied() != want || stored != want {
            return Err(format!(
                "κ({} {}): decompose {:?}, store {stored:?}, reference {want:?}",
                u.0,
                v.0,
                listing.get(&key)
            ));
        }
    }
    Ok(())
}

pub fn timed(ctx: &Ctx) -> Result<Outcome, String> {
    let (edges_path, setup, mut outputs) = setup(ctx)?;
    let base = Base::build(ctx.seed, ctx.scale);
    let edges = edges_path.to_str().ok_or("non-UTF-8 path")?;
    let (mut one, mut multi) = (Vec::new(), Vec::new());
    let threads = nproc().to_string();
    let start = Instant::now();
    while one.len() < MIN_RUNS || start.elapsed().as_secs_f64() < ctx.seconds {
        let (t1, out1) = run_tool(&ctx.tkc, &["decompose", edges, "--threads", "1"], &ctx.peak)?;
        let (tn, outn) = run_tool(
            &ctx.tkc,
            &["decompose", edges, "--threads", &threads],
            &ctx.peak,
        )?;
        one.push(t1.as_secs_f64());
        multi.push(tn.as_secs_f64());
        outputs.push(out1);
        outputs.push(outn);
    }
    let store = ctx.work.path("edges.tkcstor");
    let store_arg = store.to_str().ok_or("non-UTF-8 path")?;
    run_tool(
        &ctx.tkc,
        &["store", "pack", edges, "--out", store_arg],
        &ctx.peak,
    )?;
    let store_bytes = std::fs::metadata(&store).map_err(|e| e.to_string())?.len();
    let mut reopen = Vec::new();
    for _ in 0..REOPEN_REPS {
        let (t, out) = run_tool(&ctx.tkc, &["store", "info", store_arg], &ctx.peak)?;
        if !out.contains("checksums OK") {
            return Err(format!("tkc store info did not verify the store: {out}"));
        }
        reopen.push(t.as_secs_f64());
    }

    let want = reference_summary(&base, ctx.plant);
    for out in &outputs {
        let got = parse_summary(out)?;
        if got != want {
            return Err(format!(
                "decompose summary {got:?} differs from the reference {want:?}"
            ));
        }
    }
    check(ctx, &base, edges, &store)?;

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup), "s");
    m.put("latency_p50_ms", median(&one) * 1e3, "ms");
    m.put(
        "throughput_per_s",
        base.edges.len() as f64 / median(&multi),
        "1/s",
    );
    m.put("restart_s", median(&reopen), "s");
    m.put(
        "store_bytes_per_edge",
        store_bytes as f64 / base.edges.len() as f64,
        "B",
    );
    m.put("peak_rss_mb", ctx.peak.mb(), "MB");
    let runs = (SETUP_REPS + one.len() + multi.len() + 1 + REOPEN_REPS) as u64;
    Ok(Outcome {
        metrics: m,
        attempted: runs,
        failed: 0,
        record: vec![
            ("graph_vertices", Json::Int(base.g.num_vertices() as u64)),
            ("graph_edges", Json::Int(base.g.num_edges() as u64)),
            ("graph_max_kappa", Json::Int(u64::from(base.max_kappa()))),
            (
                "decompose_runs_per_thread_count",
                Json::Int(one.len() as u64),
            ),
            ("decompose_1t_s", Json::Num(median(&one))),
            ("decompose_mt_s", Json::Num(median(&multi))),
        ],
        spans: None,
    })
}

/// `tkc-core::decompose` and `tkc-graph::csr`: writes the edge list,
/// parses it, splits Algorithm 1 into its phases at 1 and nproc threads,
/// and counts triangles. Returns the edge list's path.
pub fn decompose_layers(
    ctx: &Ctx,
    base: &Base,
    spans: &mut SpanLog,
    m: &mut Metrics,
) -> Result<std::path::PathBuf, String> {
    let edges_path = write_edges(ctx)?;
    let mut parse = Vec::new();
    let mut g = None;
    for _ in 0..layers::REPS {
        let s = spans.root("decompose.parse");
        let loaded = tkc_graph::io::load_edge_list(&edges_path).map_err(|e| e.to_string())?;
        parse.push(spans.end(s).as_secs_f64());
        g = Some(loaded);
    }
    let g = g.ok_or("no parse ran")?;
    m.put("decompose.parse_s", median(&parse), "s");
    layers::decompose(base, &g, 1, "1t", spans, m)?;
    layers::decompose(base, &g, nproc(), "mt", spans, m)?;
    let s = spans.root("decompose.triangles");
    let triangles = tkc_graph::csr::CsrGraph::freeze(&g).triangle_count();
    spans.end(s);
    m.put("decompose.triangles", triangles as f64, "count");
    let lookup = |u, v| {
        g.edge_between(tkc_graph::VertexId(u), tkc_graph::VertexId(v))
            .is_some()
    };
    layers::lookup_replay(ctx.seed, base, "graph.edge_between", lookup, spans, m);
    drop(g);
    Ok(edges_path)
}

pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut spans = SpanLog::new(true);
    let base = Base::build(ctx.seed, ctx.scale);
    let mut m = Metrics::default();
    let edges_path = decompose_layers(ctx, &base, &mut spans, &mut m)?;

    // The store layer reopens a file packed the way `tkc store pack` does.
    let dir = ctx.work.path("state");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let edges = edges_path.to_str().ok_or("non-UTF-8 path")?;
    let store = dir.join(tkc_engine::STORE_FILE);
    let store_arg = store.to_str().ok_or("non-UTF-8 path")?;
    run_tool(
        &ctx.tkc,
        &["store", "pack", edges, "--out", store_arg],
        &ctx.peak,
    )?;
    layers::store(ctx, &base, &dir, &mut spans, &mut m)?;
    check(ctx, &base, edges, &store)?;

    // The serving layers this workload does not use, on a short write
    // slice, so the traced run reports every layer.
    let mut rest = Metrics::default();
    let run = crate::churn::serve_layers(
        ctx,
        &base,
        &crate::churn::slice_plan(&base, ctx),
        "slice",
        &mut spans,
        &mut rest,
    )?;
    m.fill(rest);
    Ok(Outcome {
        metrics: m,
        attempted: (layers::REPS * 4 + 3) as u64 + run.attempted,
        failed: run.failed,
        record: vec![
            ("graph_vertices", Json::Int(base.g.num_vertices() as u64)),
            ("graph_edges", Json::Int(base.g.num_edges() as u64)),
            ("graph_max_kappa", Json::Int(u64::from(base.max_kappa()))),
        ],
        spans: Some(spans),
    })
}
