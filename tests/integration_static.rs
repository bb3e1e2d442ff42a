#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! Integration: the static pipeline across crates — substrate → Algorithm 1
//! → extraction, on registry datasets and structured graphs.

use triangle_kcore::core::reference::{is_triangle_kcore, naive_kappa};
use triangle_kcore::prelude::*;

#[test]
fn full_pipeline_on_ppi_standin() {
    let g = triangle_kcore::datasets::build(triangle_kcore::datasets::DatasetId::Ppi, 0.3, 1);
    let d = triangle_kcore_decomposition(&g);
    assert!(
        d.max_kappa() >= 2,
        "PPI stand-in should have dense complexes"
    );

    // Every level set satisfies Definition 3 and the hierarchy nests.
    let hierarchy = core_hierarchy(&g, &d);
    assert_eq!(hierarchy.len(), d.max_kappa() as usize);
    for (i, level) in hierarchy.iter().enumerate() {
        for core in level {
            assert!(is_triangle_kcore(&g, &core.edges, i as u32 + 1));
        }
    }
}

#[test]
fn stored_and_streaming_agree_on_every_registry_dataset() {
    for id in [
        triangle_kcore::datasets::DatasetId::Synthetic,
        triangle_kcore::datasets::DatasetId::Stocks,
        triangle_kcore::datasets::DatasetId::Dblp,
    ] {
        let g = triangle_kcore::datasets::build(id, 1.0, 3);
        // Production peels over stored triangles; the bucket-peel oracle
        // re-intersects adjacency on every pop.
        let stored = triangle_kcore_decomposition(&g);
        let streaming = tkc_verify::bucket::kappa(&g);
        assert_eq!(stored.kappa_slice(), streaming.as_slice(), "{:?}", id);
    }
}

#[test]
fn naive_oracle_agrees_on_synthetic_registry_graph() {
    let g = triangle_kcore::datasets::build(triangle_kcore::datasets::DatasetId::Synthetic, 1.0, 9);
    let naive = naive_kappa(&g);
    let fast = triangle_kcore_decomposition(&g);
    for e in g.edge_ids() {
        assert_eq!(naive[e.index()], fast.kappa(e));
    }
}

#[test]
fn kappa_is_invariant_under_vertex_relabeling() {
    // Decompose, permute vertex ids, decompose again: κ multiset matches.
    let g = generators::planted_partition(3, 10, 0.6, 0.1, 4);
    let d1 = triangle_kcore_decomposition(&g);
    let n = g.num_vertices() as u32;
    let perm: Vec<u32> = (0..n).map(|v| (v * 7 + 3) % n).collect();
    let mut h = Graph::with_capacity(n as usize, g.num_edges());
    let mut expected: Vec<u32> = Vec::new();
    let mut relabeled: Vec<(u32, u32)> = Vec::new();
    for (e, u, v) in g.edges() {
        expected.push(d1.kappa(e));
        relabeled.push((perm[u.index()], perm[v.index()]));
    }
    for &(u, v) in &relabeled {
        h.add_edge(VertexId(u), VertexId(v)).unwrap();
    }
    let d2 = triangle_kcore_decomposition(&h);
    for (i, &(u, v)) in relabeled.iter().enumerate() {
        let e = h.edge_between(VertexId(u), VertexId(v)).unwrap();
        assert_eq!(d2.kappa(e), expected[i]);
    }
}

#[test]
fn io_roundtrip_preserves_decomposition() {
    let g = generators::connected_caveman(4, 5);
    let d1 = triangle_kcore_decomposition(&g);
    let mut buf = Vec::new();
    io::write_edge_list(&g, &mut buf).unwrap();
    let g2 = io::read_edge_list(buf.as_slice()).unwrap();
    let d2 = triangle_kcore_decomposition(&g2);
    // Same edges, same κ per (u, v) pair.
    for (e, u, v) in g.edges() {
        let e2 = g2.edge_between(u, v).unwrap();
        assert_eq!(d1.kappa(e), d2.kappa(e2));
    }
}

#[test]
fn clique_surfacing_across_noise_levels() {
    for (noise, seed) in [(0.01, 1u64), (0.05, 2), (0.1, 3)] {
        let mut g = generators::gnp(80, noise, seed);
        let planted = generators::plant_fresh_cliques(&mut g, 1, 7, 2, seed);
        let d = triangle_kcore_decomposition(&g);
        let found = densest_cliques(&g, &d, 1);
        assert!(
            found
                .iter()
                .any(|c| planted[0].iter().all(|v| c.vertices.contains(v))),
            "noise {noise}: planted 7-clique lost"
        );
    }
}
