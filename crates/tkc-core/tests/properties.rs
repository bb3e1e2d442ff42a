#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! Property tests for the core algorithms:
//!
//! * Algorithm 1 against the definitional iterated-pruning oracle;
//! * the dynamic maintainer against a from-scratch recompute after every
//!   operation of random edit scripts;
//! * structural theorems from the paper (Theorem 1, clique equivalence,
//!   the κ/core-number bound).

use proptest::prelude::*;
use tkc_core::decompose::triangle_kcore_decomposition;
use tkc_core::dynamic::DynamicTriangleKCore;
use tkc_core::extract::{cores_at_level, maximum_core_of_edge};
use tkc_core::kcore::core_numbers;
use tkc_core::reference::{is_triangle_kcore, naive_kappa};
use tkc_graph::{Graph, VertexId};

#[derive(Debug, Clone)]
enum Op {
    Add(u32, u32),
    Remove(u32, u32),
}

fn op_strategy(n: u32) -> impl Strategy<Value = Op> {
    (0..n, 0..n, any::<bool>())
        .prop_map(|(a, b, add)| if add { Op::Add(a, b) } else { Op::Remove(a, b) })
}

fn random_graph(n: u32) -> impl Strategy<Value = Graph> {
    proptest::collection::vec((0..n, 0..n), 0..(n as usize * 3)).prop_map(move |pairs| {
        let mut g = Graph::with_capacity(n as usize, pairs.len());
        for (a, b) in pairs {
            if a != b {
                let _ = g.try_add_edge(VertexId(a), VertexId(b));
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn peeling_matches_naive_oracle(g in random_graph(14)) {
        let naive = naive_kappa(&g);
        let d = triangle_kcore_decomposition(&g);
        for e in g.edge_ids() {
            prop_assert_eq!(naive[e.index()], d.kappa(e));
        }
    }

    #[test]
    fn dynamic_matches_static_after_every_op(
        init in random_graph(10),
        ops in proptest::collection::vec(op_strategy(10), 1..40),
    ) {
        let mut dynamic = DynamicTriangleKCore::new(init);
        for op in &ops {
            match *op {
                Op::Add(a, b) => {
                    if a != b && !dynamic.graph().has_edge(VertexId(a), VertexId(b)) {
                        dynamic.insert_edge(VertexId(a), VertexId(b)).unwrap();
                    }
                }
                Op::Remove(a, b) => {
                    let before = dynamic.kappa_slice().to_vec();
                    if let Ok(gone) = dynamic.remove_edge_between(VertexId(a), VertexId(b)) {
                        // Removing one edge moves any other edge's κ by at
                        // most one — what lets deletion share one demote
                        // cascade per level.
                        for e in dynamic.graph().edge_ids() {
                            prop_assert!(e != gone);
                            prop_assert!(
                                dynamic.kappa(e).abs_diff(before[e.index()]) <= 1,
                                "removing {:?} moved {:?} from {} to {}",
                                (a, b), dynamic.graph().endpoints(e),
                                before[e.index()], dynamic.kappa(e)
                            );
                        }
                    }
                }
            }
            let fresh = triangle_kcore_decomposition(dynamic.graph());
            for e in dynamic.graph().edge_ids() {
                prop_assert_eq!(
                    dynamic.kappa(e),
                    fresh.kappa(e),
                    "after {:?} on edge {:?}", op, dynamic.graph().endpoints(e)
                );
            }
        }
    }

    #[test]
    fn theorem_1_inside_every_maximum_core(g in random_graph(12)) {
        let d = triangle_kcore_decomposition(&g);
        for e in g.edge_ids() {
            if let Some(core) = maximum_core_of_edge(&g, &d, e) {
                // The extracted core must actually satisfy Definition 3.
                prop_assert!(is_triangle_kcore(&g, &core.edges, d.kappa(e)));
                let set: std::collections::HashSet<_> = core.edges.iter().copied().collect();
                g.for_each_triangle_on_edge(e, |_, e1, e2| {
                    if set.contains(&e1) && set.contains(&e2) {
                        assert!(d.kappa(e1) >= d.kappa(e), "theorem 1 violated");
                        assert!(d.kappa(e2) >= d.kappa(e), "theorem 1 violated");
                    }
                });
            }
        }
    }

    #[test]
    fn kappa_bounded_by_core_numbers(g in random_graph(14)) {
        // Inside a Triangle K-Core of number k every vertex has degree
        // >= k+1, so κ(e) <= min(core(u), core(v)) - 1 for any edge.
        let d = triangle_kcore_decomposition(&g);
        let core = core_numbers(&g);
        for (e, u, v) in g.edges() {
            let bound = core[u.index()].min(core[v.index()]);
            prop_assert!(d.kappa(e) < bound || (d.kappa(e) == 0 && bound == 0));
        }
    }

    #[test]
    fn planted_clique_reaches_full_kappa(extra in random_graph(12), size in 4u32..8) {
        // Plant a clique on fresh vertices: its edges must reach κ >= size-2
        // no matter what surrounds them.
        let mut g = extra;
        let base = g.num_vertices() as u32;
        g.add_vertices(size as usize);
        for i in 0..size {
            for j in (i + 1)..size {
                g.add_edge(VertexId(base + i), VertexId(base + j)).unwrap();
            }
        }
        let d = triangle_kcore_decomposition(&g);
        for i in 0..size {
            for j in (i + 1)..size {
                let e = g.edge_between(VertexId(base + i), VertexId(base + j)).unwrap();
                prop_assert!(d.kappa(e) >= size - 2);
            }
        }
    }

    #[test]
    fn level_sets_satisfy_definition(g in random_graph(13)) {
        let d = triangle_kcore_decomposition(&g);
        for k in 1..=d.max_kappa() {
            for core in cores_at_level(&g, &d, k) {
                prop_assert!(is_triangle_kcore(&g, &core.edges, k));
            }
        }
    }

    #[test]
    fn global_max_clique_bounded_by_max_kappa(g in random_graph(13)) {
        // Every maximal clique of size s implies κ >= s-2 on its edges, so
        // the largest clique is at most max κ + 2 — and the bound is tight
        // when the densest structure is an actual clique.
        let d = triangle_kcore_decomposition(&g);
        let cliques = tkc_graph::cliques::maximal_cliques(&g, 3);
        let max_clique = cliques.iter().map(|c| c.len()).max().unwrap_or(0);
        if max_clique >= 3 {
            prop_assert!(max_clique as u32 <= d.max_kappa() + 2);
            // Edges inside the max clique carry κ >= size - 2.
            let best = cliques.iter().max_by_key(|c| c.len()).unwrap();
            for (i, &u) in best.iter().enumerate() {
                for &v in &best[i + 1..] {
                    let e = g.edge_between(u, v).unwrap();
                    prop_assert!(d.kappa(e) + 2 >= best.len() as u32);
                }
            }
        }
    }

    #[test]
    fn pure_deletion_stream_matches_static(
        init in random_graph(12),
        picks in proptest::collection::vec(0usize..64, 1..30),
    ) {
        // Deletion-only stress: starting from a random graph, remove a
        // random live edge at a time (picks index into the shrinking live
        // set) and require exact agreement with a from-scratch Algorithm 1
        // run after every removal — the demote cascade gets no help from
        // intervening insertions here.
        let mut dynamic = DynamicTriangleKCore::new(init);
        for &pick in &picks {
            let live: Vec<_> = dynamic.graph().edge_ids().collect();
            if live.is_empty() {
                break;
            }
            let victim = live[pick % live.len()];
            let (u, v) = dynamic.graph().endpoints(victim);
            dynamic.remove_edge(victim).unwrap();
            let fresh = triangle_kcore_decomposition(dynamic.graph());
            for e in dynamic.graph().edge_ids() {
                prop_assert_eq!(
                    dynamic.kappa(e),
                    fresh.kappa(e),
                    "after deleting ({u}, {v}), edge {:?} diverged",
                    dynamic.graph().endpoints(e)
                );
            }
        }
        // Dead slots must read κ = 0 (the certificate checker relies on it).
        let live: std::collections::HashSet<_> =
            dynamic.graph().edge_ids().collect();
        for (i, &k) in dynamic.kappa_slice().iter().enumerate() {
            if !live.contains(&tkc_graph::EdgeId::from(i)) {
                prop_assert_eq!(k, 0, "dead slot {i} holds stale kappa");
            }
        }
    }

    #[test]
    fn batch_and_singles_agree(
        init in random_graph(9),
        ops in proptest::collection::vec(op_strategy(9), 0..20),
    ) {
        use tkc_core::dynamic::BatchOp;
        let mut one_by_one = DynamicTriangleKCore::new(init.clone());
        let mut batched = DynamicTriangleKCore::new(init);
        let batch: Vec<BatchOp> = ops
            .iter()
            .map(|op| match *op {
                Op::Add(a, b) => BatchOp::Insert(VertexId(a), VertexId(b)),
                Op::Remove(a, b) => BatchOp::Remove(VertexId(a), VertexId(b)),
            })
            .collect();
        batched.apply_batch(batch);
        for op in &ops {
            match *op {
                Op::Add(a, b) => {
                    if a != b && !one_by_one.graph().has_edge(VertexId(a), VertexId(b)) {
                        one_by_one.insert_edge(VertexId(a), VertexId(b)).unwrap();
                    }
                }
                Op::Remove(a, b) => {
                    let _ = one_by_one.remove_edge_between(VertexId(a), VertexId(b));
                }
            }
        }
        prop_assert_eq!(one_by_one.graph().num_edges(), batched.graph().num_edges());
        for e in one_by_one.graph().edge_ids() {
            prop_assert_eq!(one_by_one.kappa(e), batched.kappa(e));
        }
    }
}
