//! `bench_store` — the out-of-core store trajectory.
//!
//! Measures the `TKCSTOR` pipeline end to end on the streamed synthetic
//! graph (>=10x the 120k-edge bench families in full mode): pack time
//! and compression against the raw-CSR yardstick, the out-of-core
//! stratum peel under a hard resident budget **smaller than the raw CSR
//! size**, and the engine's cold-start ladder — reopen from the packed
//! store vs re-decomposing a text snapshot vs rebuilding from the WAL.
//! Writes the machine-readable record `BENCH_store.json` (with the
//! `host` it ran on) so future store PRs append to a trajectory instead
//! of claiming speedups in prose.
//!
//! ```text
//! cargo run --release -p tkc-bench --bin bench_store            # full
//! cargo run --release -p tkc-bench --bin bench_store -- --quick # CI smoke
//! ```
//!
//! Flags / env: `--quick` shrinks the graph for the CI smoke step; `--out
//! <path>` overrides the JSON destination (default `BENCH_store.json` in
//! the working directory); `TKC_SEED` seeds the generator.
//!
//! Three gates abort the bench rather than record a lie:
//!
//! * the out-of-core κ must be bit-identical to the in-memory peel;
//! * the peel's peak resident footprint must stay within its budget,
//!   which itself must be smaller than the raw CSR size;
//! * engine reopen from the packed store must beat the no-snapshot
//!   rebuild — Engine::open replaying the full WAL through the dynamic
//!   maintainer — by >=10x.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
use std::path::Path;
use std::time::Duration;

use tkc_bench::{fmt_secs, host_json, seed_from_env, time};
use tkc_core::decompose::triangle_kcore_decomposition;
use tkc_core::ooc::{decompose_ooc, OocConfig};
use tkc_core::persist::{read_state, write_state};
use tkc_datasets::{build_streamed, StreamedConfig};
use tkc_engine::{Engine, EngineConfig, WalOp, STORE_FILE};
use tkc_graph::csr::edge_supports_csr;
use tkc_store::pack_graph;

/// Min-of-`reps` timing of `f`; the value of the best run is returned.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let (mut out, mut best) = time(&mut f);
    for _ in 1..reps.max(1) {
        let (value, elapsed) = time(&mut f);
        if elapsed < best {
            best = elapsed;
            out = value;
        }
    }
    (out, best)
}

/// Min-of-`reps` timing where each run's value must be dropped before
/// the next starts (two engines must not hold the same dir at once).
fn best_of_serial<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let (value, elapsed) = time(&mut f);
        drop(value);
        if elapsed < best {
            best = elapsed;
        }
    }
    best
}

fn raw_config(dir: &Path) -> EngineConfig {
    EngineConfig {
        fsync: false,
        epoch_ops: 0,
        compact_bytes: 0,
        ..EngineConfig::new(dir)
    }
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_store.json".to_string());
    let seed = seed_from_env();
    let reps = 3;

    // The acceptance workload: the streamed generator at ~1.3M edges
    // (>=10x the 120k-edge bench families). Quick mode keeps the exact
    // structure (ring + chords + planted cliques) at ~70k edges.
    let cfg = if quick {
        StreamedConfig {
            vertices: 16_384,
            ..StreamedConfig::bench(seed)
        }
    } else {
        StreamedConfig::bench(seed)
    };
    tkc_obs::info!(
        "bench_store ({mode} mode, seed {seed}): streaming {} vertices",
        cfg.vertices,
    );
    let g = build_streamed(&cfg);
    let (vertices, edges) = (g.num_vertices(), g.num_edges());

    // In-memory reference peel: the κ every other path must reproduce
    // bit-for-bit, and the "decompose" leg of the rebuild baseline.
    let (reference, decompose_time) = best_of(reps, || triangle_kcore_decomposition(&g));
    let max_kappa = reference.max_kappa();
    tkc_obs::info!(
        "  graph: {vertices} vertices / {edges} edges, max κ {max_kappa}, \
         in-memory peel {} s",
        fmt_secs(decompose_time),
    );

    // Pack: supports + κ into TKCSTOR, written into a scratch engine dir
    // laid out exactly as compaction leaves it (the store is the only
    // snapshot), so the cold-start ladder below opens a real dir.
    let dir = std::env::temp_dir().join(format!("tkc_bench_store_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let store_path = dir.join(STORE_FILE);
    let supports = edge_supports_csr(&g);
    let (file_bytes, pack_time) = best_of(reps, || {
        let parts = pack_graph(&g, &supports, Some(reference.kappa_slice())).expect("pack");
        let bytes = parts.write_path(&store_path).expect("write store");
        (bytes, parts.info())
    });
    let (store_bytes, info) = file_bytes;
    let raw_csr_bytes = info.raw_csr_bytes();
    let bytes_per_edge = store_bytes as f64 / edges.max(1) as f64;
    let ratio_vs_raw_csr = store_bytes as f64 / raw_csr_bytes.max(1) as f64;
    tkc_obs::info!(
        "  pack: {} s, {store_bytes} B on disk vs {raw_csr_bytes} B raw CSR \
         ({bytes_per_edge:.1} B/edge, {ratio_vs_raw_csr:.2}x raw)",
        fmt_secs(pack_time),
    );

    // Out-of-core peel under a hard budget smaller than the raw CSR —
    // the RAM-wall acceptance: κ identical, peak resident under budget,
    // budget under what the in-memory CSR alone would occupy. The floor
    // is the biggest single-support stratum (support-0 chords, which no
    // stratum boundary can split) plus the caches' fixed shares: 5/8 of
    // the raw CSR clears it at full scale, 3/4 on the small quick graph
    // where the fixed floors weigh proportionally more.
    let budget = if quick {
        raw_csr_bytes * 3 / 4
    } else {
        raw_csr_bytes * 5 / 8
    };
    assert!(budget < raw_csr_bytes, "budget must undercut the raw CSR");
    let (ooc, ooc_time) =
        time(|| decompose_ooc(&store_path, &OocConfig::with_budget(budget)).expect("ooc peel"));
    assert_eq!(
        ooc.kappa.as_slice(),
        reference.kappa_slice(),
        "out-of-core κ diverged from the in-memory peel"
    );
    assert_eq!(ooc.max_kappa, max_kappa);
    let peak = ooc.stats.peak_resident_bytes();
    assert!(
        peak <= budget,
        "peel peak {peak} B exceeded its {budget} B budget"
    );
    tkc_obs::info!(
        "  ooc peel: {} s under {budget} B budget ({} strata, peak {peak} B, \
         {} B spilled, {} edges pulled) — κ bit-identical",
        fmt_secs(ooc_time),
        ooc.stats.strata,
        ooc.stats.spilled_bytes,
        ooc.stats.pulled_edges,
    );

    // Cold-start ladder: the packed dir opened by Engine::open, then a
    // batch re-decomposition of the same state from a text snapshot (text
    // parse + full peel), and finally the true rebuild — Engine::open of
    // a WAL-only dir, replaying every op through the dynamic maintainer,
    // which is what cold start costs with no snapshot at all and what
    // the packed store exists to avoid.
    let store_open = best_of_serial(reps, || {
        let engine = Engine::open(raw_config(&dir)).expect("store reopen");
        assert_eq!(
            engine.snapshot().num_edges(),
            edges,
            "store reopen lost edges"
        );
        engine
    });

    let text_path = dir.join("redecompose.tkc");
    let file = std::fs::File::create(&text_path).expect("create text state");
    write_state(&g, reference.kappa_slice(), file).expect("write text state");
    let redecompose = best_of_serial(reps, || {
        let file = std::fs::File::open(&text_path).expect("open text state");
        let (g2, _stored_kappa) = read_state(file).expect("parse state");
        let d = triangle_kcore_decomposition(&g2);
        assert_eq!(d.max_kappa(), max_kappa, "re-decomposition diverged");
        (g2, d)
    });

    // WAL-only dir: the full edge stream as Insert ops, never compacted.
    // Seeding it costs one replay up front; the timed run is a second
    // Engine::open over the same log.
    let wal_dir = dir.join("wal_only");
    std::fs::create_dir_all(&wal_dir).expect("create wal dir");
    {
        let engine = Engine::open(raw_config(&wal_dir)).expect("open wal dir");
        let mut batch: Vec<WalOp> = Vec::with_capacity(65_536);
        batch.push(WalOp::AddVertices(vertices as u32));
        tkc_datasets::streamed::stream_edges(&cfg, |u, v| -> Result<(), ()> {
            batch.push(WalOp::Insert(u, v));
            if batch.len() == batch.capacity() {
                engine.apply(&batch).expect("apply wal batch");
                batch.clear();
            }
            Ok(())
        })
        .expect("stream wal ops");
        if !batch.is_empty() {
            engine.apply(&batch).expect("apply wal batch");
        }
    }
    let rebuild = best_of_serial(1, || {
        let engine = Engine::open(raw_config(&wal_dir)).expect("wal replay");
        assert_eq!(
            engine.snapshot().num_edges(),
            edges,
            "wal replay lost edges"
        );
        engine
    });

    let speedup_vs_redecompose = millis(redecompose) / millis(store_open).max(1e-9);
    let speedup_vs_rebuild = millis(rebuild) / millis(store_open).max(1e-9);
    tkc_obs::info!(
        "  cold start: store {} s, \
         re-decompose {} s ({speedup_vs_redecompose:.1}x), \
         wal replay {} s ({speedup_vs_rebuild:.1}x)",
        fmt_secs(store_open),
        fmt_secs(redecompose),
        fmt_secs(rebuild),
    );
    let gate = 10.0;
    assert!(
        speedup_vs_rebuild >= gate,
        "cold-start gate: store reopen is only {speedup_vs_rebuild:.2}x the \
         WAL-replay rebuild (need >={gate}x)"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"store\",\n",
            "  \"version\": 2,\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"host\": {host},\n",
            "  \"seed\": {seed},\n",
            "  \"graph\": {{\"source\":\"streamed\",\"vertices\":{vertices},",
            "\"edges\":{edges},\"max_kappa\":{max_kappa}}},\n",
            "  \"pack\": {{\"millis\":{pack:.3},\"file_bytes\":{store_bytes},",
            "\"raw_csr_bytes\":{raw_csr_bytes},\"bytes_per_edge\":{bpe:.2},",
            "\"ratio_vs_raw_csr\":{ratio:.3}}},\n",
            "  \"ooc\": {{\"budget_bytes\":{budget},\"millis\":{ooc:.3},",
            "\"strata\":{strata},\"pulled_edges\":{pulled},",
            "\"peak_resident_bytes\":{peak},\"spilled_bytes\":{spilled},",
            "\"kappa_identical\":true}},\n",
            "  \"cold_start\": {{\"reopen_store_millis\":{so:.3},",
            "\"redecompose_millis\":{rd:.3},\"rebuild_wal_millis\":{rb:.3},",
            "\"speedup_store_vs_redecompose\":{svd:.2},",
            "\"speedup_store_vs_rebuild\":{svr:.2}}}\n",
            "}}\n",
        ),
        mode = mode,
        host = host_json(mode),
        seed = seed,
        vertices = vertices,
        edges = edges,
        max_kappa = max_kappa,
        pack = millis(pack_time),
        store_bytes = store_bytes,
        raw_csr_bytes = raw_csr_bytes,
        bpe = bytes_per_edge,
        ratio = ratio_vs_raw_csr,
        budget = budget,
        ooc = millis(ooc_time),
        strata = ooc.stats.strata,
        pulled = ooc.stats.pulled_edges,
        peak = peak,
        spilled = ooc.stats.spilled_bytes,
        so = millis(store_open),
        rd = millis(redecompose),
        rb = millis(rebuild),
        svd = speedup_vs_redecompose,
        svr = speedup_vs_rebuild,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_store.json");
    std::fs::remove_dir_all(&dir).ok();
    println!("wrote {out_path}");
    println!(
        "headline: reopen from packed store {speedup_vs_rebuild:.1}x over rebuild, \
         ooc peel under {budget} B budget ({:.0}% of raw CSR), κ bit-identical",
        100.0 * budget as f64 / raw_csr_bytes.max(1) as f64,
    );
}
