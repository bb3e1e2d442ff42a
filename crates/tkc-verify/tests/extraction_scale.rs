//! Kernel and truss table ≡ BFS oracle for Triangle K-Core extraction on
//! the full 1.57M-edge `streamed` bench graph, at every level, with the
//! oracle and the kernel timed per level and the table's one build timed
//! beside them. Too slow for the default suite; run it with
//!
//! ```sh
//! cargo test --release -p tkc-verify --test extraction_scale -- --ignored --nocapture
//! ```
//!
//! `TKC_EXTRACT_SEEDS=1,5` (the default) picks the graph seeds.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::time::Instant;

use tkc_core::decompose::Decomposition;
use tkc_core::extract::cores_at_level;
use tkc_datasets::streamed::build_graph;
use tkc_datasets::StreamedConfig;
use tkc_graph::components::{edge_set_vertices, TrussTable};
use tkc_verify::{check_core_extraction, triangle_connected_components_bfs};

#[test]
#[ignore = "full-scale run: ~20 s per seed in release"]
fn kernel_matches_oracle_at_every_level_of_the_bench_graph() {
    let seeds: Vec<u64> = std::env::var("TKC_EXTRACT_SEEDS")
        .unwrap_or_else(|_| "1,5".to_string())
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .expect("TKC_EXTRACT_SEEDS: comma-separated u64s")
        })
        .collect();
    for seed in seeds {
        let g = build_graph(&StreamedConfig::bench(seed));
        let d = Decomposition::compute_with(&g, 1);
        check_core_extraction(&g, d.kappa_slice())
            .unwrap_or_else(|m| panic!("seed {seed}: extraction and oracle differ: {m:?}"));

        let start = Instant::now();
        let table = TrussTable::new(&g, d.kappa_slice());
        let table_s = start.elapsed().as_secs_f64();
        assert_eq!(table.max_level(), d.max_kappa(), "seed {seed}");

        let (mut oracle_total, mut cores_total) = (0.0, 0.0);
        let mut cores_ms = Vec::new();
        for k in 1..=d.max_kappa() {
            let start = Instant::now();
            let oracle: Vec<_> = triangle_connected_components_bfs(&g, |e| d.kappa(e) >= k)
                .into_iter()
                .map(|c| edge_set_vertices(&g, &c))
                .collect();
            let oracle_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let cores = cores_at_level(&g, &d, k);
            let cores_s = start.elapsed().as_secs_f64();
            let row = table.level(k);
            std::hint::black_box((oracle.len(), cores.len()));
            oracle_total += oracle_s;
            cores_total += cores_s;
            cores_ms.push(cores_s * 1e3);
            println!(
                "seed {seed} k {k:2}: {:3} cores {:8} edges {:8} vertices | \
                 oracle {:6.1} ms, cores_at_level {:6.1} ms",
                row.components,
                row.edges,
                row.vertices,
                oracle_s * 1e3,
                cores_s * 1e3
            );
        }
        cores_ms.sort_by(f64::total_cmp);
        println!(
            "seed {seed}: {} edges, {} triangles, levels 1..={}: oracle {oracle_total:.2} s, \
             cores_at_level {cores_total:.2} s (median level {:.1} ms), \
             truss table (all levels, one build) {:.1} ms",
            g.num_edges(),
            table.triangles(),
            d.max_kappa(),
            cores_ms[cores_ms.len() / 2],
            table_s * 1e3
        );
    }
}
