#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! Property tests for the level-synchronous peel
//! ([`tkc_core::peel_parallel`]): for random graphs — including graphs
//! with dead edge slots left by deletions — and every chunk count 1–8,
//! under every triangle lookup strategy, the peel must reproduce the
//! definitional oracle's κ vector and max κ bit-for-bit, and the
//! processing order Rule 1 derives from it (live edges by `(κ, edge id)`)
//! must be identical across every chunk count and lookup.

use proptest::prelude::*;
use tkc_core::decompose::{core_triangles_of_edge, Decomposition};
use tkc_core::peel_parallel::{level_sync_forced, TriangleLookup};
use tkc_core::reference::naive_kappa;
use tkc_graph::{EdgeId, Graph, VertexId};

/// Random graph with optional churn: build from random pairs, then
/// delete a sample of edges so the edge-id space contains dead slots —
/// the parallel peel indexes per-edge arrays by raw id and must not be
/// confused by holes.
fn churned_graph(n: u32) -> impl Strategy<Value = Graph> {
    (
        proptest::collection::vec((0..n, 0..n), 0..(n as usize * 3)),
        proptest::collection::vec(0usize..64, 0..12),
    )
        .prop_map(move |(pairs, deletions)| {
            let mut g = Graph::with_capacity(n as usize, pairs.len());
            for (a, b) in pairs {
                if a != b {
                    let _ = g.try_add_edge(VertexId(a), VertexId(b));
                }
            }
            for pick in deletions {
                let live: Vec<EdgeId> = g.edge_ids().collect();
                if live.is_empty() {
                    break;
                }
                g.remove_edge(live[pick % live.len()]).unwrap();
            }
            g
        })
}

/// Live edges sorted by `(κ, edge id)`: the processing order Rule 1
/// ranks triangles by.
fn processing_order(g: &Graph, d: &Decomposition) -> Vec<EdgeId> {
    let mut order: Vec<EdgeId> = g.edge_ids().collect();
    order.sort_unstable_by_key(|&e| (d.kappa(e), e));
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn parallel_kappa_is_bit_identical_to_sequential(g in churned_graph(16)) {
        let seq = naive_kappa(&g);
        let seq_max = g.edge_ids().map(|e| seq[e.index()]).max().unwrap_or(0);
        for lookup in [TriangleLookup::Auto, TriangleLookup::Stored, TriangleLookup::Merge] {
            for threads in 1usize..=8 {
                let par = level_sync_forced(&g, threads, lookup);
                prop_assert_eq!(par.max_kappa(), seq_max);
                for e in g.edge_ids() {
                    prop_assert_eq!(
                        par.kappa(e), seq[e.index()],
                        "κ diverged at {:?} ({:?}, {threads} threads)",
                        g.endpoints(e), lookup
                    );
                }
                // Dead slots included.
                prop_assert_eq!(par.kappa_slice(), seq.as_slice());
            }
        }
    }

    #[test]
    fn parallel_order_is_identical_across_threads_and_lookups(g in churned_graph(14)) {
        let baseline = level_sync_forced(&g, 1, TriangleLookup::Stored);
        let base_order = processing_order(&g, &baseline);
        let base_core: Vec<_> =
            g.edge_ids().map(|e| core_triangles_of_edge(&g, &baseline, e)).collect();
        for lookup in [TriangleLookup::Auto, TriangleLookup::Stored, TriangleLookup::Merge] {
            for threads in 1usize..=8 {
                let par = level_sync_forced(&g, threads, lookup);
                prop_assert_eq!(
                    processing_order(&g, &par), base_order.clone(),
                    "order diverged ({:?}, {threads} threads)", lookup
                );
                prop_assert_eq!(par.kappa_slice(), baseline.kappa_slice());
                prop_assert_eq!(par.histogram(), baseline.histogram());
                let core: Vec<_> =
                    g.edge_ids().map(|e| core_triangles_of_edge(&g, &par, e)).collect();
                prop_assert_eq!(core, base_core.clone(), "Rule 1 diverged ({:?}, {threads} threads)", lookup);
            }
        }
    }
}
