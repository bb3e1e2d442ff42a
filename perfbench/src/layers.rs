//! In-process per-layer measurements for the traced run: each wraps a
//! layer's public calls in the benchmark's own spans. The program's own
//! counters are only read.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tkc_core::decompose::{triangle_kcore_decomposition_timed, Decomposition};
use tkc_engine::{Engine, EngineConfig, EpochSnapshot};
use tkc_graph::csr::{edge_supports_csr, CsrGraph};
use tkc_store::{pack_graph, PageCacheConfig, StoreReader};

use crate::inputs::Base;
use crate::spans::SpanLog;
use crate::util::{median, percentile, Metrics, Rng};
use crate::Ctx;

/// Repetitions of each one-shot layer call; the median is reported.
pub const REPS: usize = 3;
/// Point lookups replayed against a snapshot.
pub const LOOKUPS: usize = 200_000;

/// Every this-many-th span of a per-op replay is kept for the JSONL; the
/// metrics use every op's timing.
pub const SPAN_SAMPLE: usize = 64;

/// Moves a sample of a replay's spans into the run's log.
pub fn keep_sample(spans: &mut SpanLog, replay: SpanLog) {
    spans
        .spans
        .extend(replay.spans.into_iter().step_by(SPAN_SAMPLE));
}

/// `tkc-store`: pack the graph to a file, reopen it, and report the page
/// cache's hit ratio over the reopen.
pub fn store(
    ctx: &Ctx,
    base: &Base,
    packed_dir: &Path,
    spans: &mut SpanLog,
    m: &mut Metrics,
) -> Result<(), String> {
    let supports = edge_supports_csr(&base.g);
    let out = ctx.work.path("layer.tkcstor");
    let mut pack = Vec::new();
    for _ in 0..REPS {
        let s = spans.root("store.pack");
        let parts = pack_graph(&base.g, &supports, Some(base.d.kappa_slice()))
            .map_err(|e| e.to_string())?;
        parts.write_path(&out).map_err(|e| e.to_string())?;
        pack.push(spans.end(s).as_secs_f64());
    }
    let _ = std::fs::remove_file(&out);
    m.put("store.pack_s", median(&pack), "s");

    let path = packed_dir.join(tkc_engine::STORE_FILE);
    let mut open = Vec::new();
    let mut ratio = 0.0;
    for _ in 0..REPS {
        let s = spans.root("store.open");
        let reader =
            StoreReader::open(&path, PageCacheConfig::default()).map_err(|e| e.to_string())?;
        let g = reader.load_graph().map_err(|e| e.to_string())?;
        let kappa = reader.read_kappa().map_err(|e| e.to_string())?;
        open.push(spans.end(s).as_secs_f64());
        if g.num_edges() != base.g.num_edges() || kappa.len() < g.edge_bound() {
            return Err("packed store does not hold the graph it was packed from".into());
        }
        let c = reader.cache_stats();
        ratio = c.hits as f64 / (c.hits + c.misses).max(1) as f64;
    }
    m.put("store.open_s", median(&open), "s");
    m.put("store.page_hit_ratio", ratio, "ratio");
    Ok(())
}

/// `Engine::open` on a packed state dir (median of [`REPS`]); returns the
/// last engine opened.
pub fn open_engine(
    dir: &Path,
    spans: &mut SpanLog,
    m: &mut Metrics,
) -> Result<Arc<Engine>, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..REPS {
        drop(last.take());
        let s = spans.root("engine.open");
        let engine =
            Engine::open(EngineConfig::new(dir)).map_err(|e| format!("Engine::open: {e}"))?;
        times.push(spans.end(s).as_secs_f64());
        last = Some(engine);
    }
    m.put("engine.open_s", median(&times), "s");
    Ok(Arc::new(last.ok_or("no open ran")?))
}

/// Snapshot point lookups (`EpochSnapshot::kappa`), each in a span.
pub fn snapshot_reads(
    seed: u64,
    base: &Base,
    snap: &EpochSnapshot,
    spans: &mut SpanLog,
    m: &mut Metrics,
) {
    let p50 = lookup_replay(
        seed,
        base,
        "snapshot.kappa",
        |u, v| snap.kappa(u, v).is_some(),
        spans,
        m,
    );
    m.put("snapshot.kappa_p50_ns", p50, "ns");
}

/// Replays [`LOOKUPS`] seeded point lookups with a span around each call,
/// then again with spans off; the difference per call is reported as
/// `trace.span_overhead_ns`. Returns the median call time in ns.
pub fn lookup_replay(
    seed: u64,
    base: &Base,
    name: &'static str,
    lookup: impl Fn(u32, u32) -> bool,
    spans: &mut SpanLog,
    m: &mut Metrics,
) -> f64 {
    let mut rng = Rng::fork(seed, 20);
    let picks: Vec<(u32, u32)> = (0..LOOKUPS)
        .map(|_| base.edges[rng.below(base.edges.len())])
        .collect();
    let mut hits = 0u64;
    let mut durs = Vec::with_capacity(LOOKUPS);
    let mut log = SpanLog::new(true);
    let start = Instant::now();
    for &(u, v) in &picks {
        let s = log.root(name);
        hits += u64::from(lookup(u, v));
        durs.push(log.end(s).as_nanos() as f64);
    }
    let on = start.elapsed().as_nanos() as f64;
    keep_sample(spans, log);
    let start = Instant::now();
    for &(u, v) in &picks {
        hits += u64::from(lookup(u, v));
    }
    let off = start.elapsed().as_nanos() as f64;
    std::hint::black_box(hits);
    m.put("trace.span_overhead_ns", (on - off) / LOOKUPS as f64, "ns");
    percentile(&durs, 50.0)
}

/// `EpochSnapshot::truss` over `passes` seeded passes of 1..=max κ.
pub fn extract(
    seed: u64,
    base: &Base,
    snap: &EpochSnapshot,
    passes: usize,
    spans: &mut SpanLog,
    m: &mut Metrics,
) {
    let levels = crate::query::truss_levels(seed, base.max_kappa(), passes);
    let mut durs = Vec::new();
    for &k in &levels {
        let s = spans.root("extract.truss");
        std::hint::black_box(snap.truss(k));
        durs.push(spans.end(s).as_secs_f64() * 1e3);
    }
    m.put("extract.truss_p50_ms", percentile(&durs, 50.0), "ms");
    m.put("extract.truss_p90_ms", percentile(&durs, 90.0), "ms");
}

/// The three public calls an epoch publish makes (graph clone, κ view,
/// CSR freeze), each timed [`REPS`] times on the engine's current state.
pub fn publish_parts(engine: &Engine, spans: &mut SpanLog, m: &mut Metrics) {
    let snap = engine.snapshot();
    let (mut clone, mut view, mut freeze) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let parent = spans.root("publish.parts");
        let s = spans.child(&parent, "publish.graph_clone");
        let graph = snap.graph().clone();
        clone.push(spans.end(s).as_secs_f64() * 1e3);
        let s = spans.child(&parent, "publish.from_kappa");
        let decomp = Decomposition::from_kappa(&graph, snap.decomposition().kappa_slice().to_vec());
        view.push(spans.end(s).as_secs_f64() * 1e3);
        let s = spans.child(&parent, "publish.csr_freeze");
        let csr = CsrGraph::freeze(&graph);
        freeze.push(spans.end(s).as_secs_f64() * 1e3);
        spans.end(parent);
        std::hint::black_box((decomp.max_kappa(), csr.num_edges()));
    }
    m.put("publish.graph_clone_ms", median(&clone), "ms");
    m.put("publish.from_kappa_ms", median(&view), "ms");
    m.put("publish.csr_freeze_ms", median(&freeze), "ms");
}

/// Algorithm 1 phase split at `threads` (median of [`REPS`] runs); checks
/// κ against the reference on every run.
pub fn decompose(
    base: &Base,
    g: &tkc_graph::Graph,
    threads: usize,
    tag: &str,
    spans: &mut SpanLog,
    m: &mut Metrics,
) -> Result<(), String> {
    let (mut freeze, mut supports, mut peel) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let parent = spans.root("decompose");
        let (d, t) = triangle_kcore_decomposition_timed(g, threads);
        let dur = spans.end(parent);
        // The phases were timed by the call itself; hang them off the span.
        let phases = [
            ("decompose.freeze", t.freeze),
            ("decompose.supports", t.supports),
            ("decompose.peel", t.peel),
        ];
        let mut back = std::time::Duration::ZERO;
        for (name, d) in phases.iter().rev() {
            spans.derived(&parent, dur.saturating_sub(back), name, *d);
            back += *d;
        }
        freeze.push(t.freeze.as_secs_f64());
        supports.push(t.supports.as_secs_f64());
        peel.push(t.peel.as_secs_f64());
        if d.kappa_slice() != base.d.kappa_slice() {
            return Err(format!(
                "in-process decomposition at {threads} threads differs from the reference"
            ));
        }
    }
    m.put(&format!("decompose.freeze_s.{tag}"), median(&freeze), "s");
    m.put(
        &format!("decompose.supports_s.{tag}"),
        median(&supports),
        "s",
    );
    m.put(&format!("decompose.peel_s.{tag}"), median(&peel), "s");
    Ok(())
}
