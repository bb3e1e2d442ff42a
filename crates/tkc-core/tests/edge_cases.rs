#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! Hard edge cases and failure injection for the core algorithms:
//! degenerate graphs, adversarial shapes, id churn, and misuse handling.

use tkc_core::decompose::triangle_kcore_decomposition;
use tkc_core::dynamic::{BatchOp, DynamicTriangleKCore};
use tkc_core::peel_parallel::{level_sync_forced, TriangleLookup};
use tkc_core::reference::naive_kappa;
use tkc_graph::{generators, Graph, GraphError, VertexId};

#[test]
fn bipartite_graphs_have_zero_kappa_everywhere() {
    // Complete bipartite graphs are triangle-free no matter how dense.
    let mut g = Graph::with_capacity(12, 36);
    for a in 0..6u32 {
        for b in 6..12u32 {
            g.add_edge(VertexId(a), VertexId(b)).unwrap();
        }
    }
    let d = triangle_kcore_decomposition(&g);
    assert_eq!(d.max_kappa(), 0);
    assert!(g.edge_ids().all(|e| d.kappa(e) == 0));
    // And dynamic operations on it stay trivial.
    let mut m = DynamicTriangleKCore::new(g);
    m.remove_edge_between(VertexId(0), VertexId(6)).unwrap();
    m.insert_edge(VertexId(0), VertexId(1)).unwrap(); // first triangle source
    assert_eq!(m.stats().demotions, 0);
}

#[test]
fn wheel_graph_kappa() {
    // Wheel W_n: hub + cycle. Every triangle includes the hub; spoke edges
    // are in 2 triangles, rim edges in 1 → all κ = 1.
    let n = 12u32;
    let mut g = Graph::with_capacity(n as usize + 1, 0);
    for i in 0..n {
        g.add_edge(VertexId(n), VertexId(i)).unwrap();
        g.add_edge(VertexId(i), VertexId((i + 1) % n)).unwrap();
    }
    let d = triangle_kcore_decomposition(&g);
    assert!(g.edge_ids().all(|e| d.kappa(e) == 1), "{:?}", d.histogram());
    assert_eq!(naive_kappa(&g), d.kappa_slice());
}

#[test]
fn barbell_demotion_cascade_crosses_the_bar() {
    // Two K6 joined by a path of triangles; deleting deep inside one
    // clique must not disturb the other.
    let mut g = generators::complete(6);
    g.add_vertices(8);
    for i in 6..12u32 {
        for j in (i + 1)..12 {
            g.add_edge(VertexId(i), VertexId(j)).unwrap();
        }
    }
    // Triangle chain bar: 5-12-13, 12-13-6.
    g.add_edge(VertexId(5), VertexId(12)).unwrap();
    g.add_edge(VertexId(12), VertexId(13)).unwrap();
    g.add_edge(VertexId(5), VertexId(13)).unwrap();
    g.add_edge(VertexId(12), VertexId(6)).unwrap();
    g.add_edge(VertexId(13), VertexId(6)).unwrap();
    let mut m = DynamicTriangleKCore::new(g);
    m.remove_edge_between(VertexId(0), VertexId(1)).unwrap();
    let fresh = triangle_kcore_decomposition(m.graph());
    for e in m.graph().edge_ids() {
        assert_eq!(m.kappa(e), fresh.kappa(e));
    }
    // The second clique kept κ = 4.
    let e = m.graph().edge_between(VertexId(6), VertexId(7)).unwrap();
    assert_eq!(m.kappa(e), 4);
}

#[test]
fn edge_id_reuse_does_not_leak_stale_kappa() {
    // Remove a high-κ edge, insert an unrelated edge that reuses its slot:
    // the new edge must start from its own κ, not the corpse's.
    let mut m = DynamicTriangleKCore::new(generators::complete(5));
    let dead = m.graph().edge_between(VertexId(0), VertexId(1)).unwrap();
    m.remove_edge(dead).unwrap();
    m.add_vertices(2);
    let fresh_edge = m.insert_edge(VertexId(5), VertexId(6)).unwrap();
    assert_eq!(fresh_edge, dead, "slot should be recycled");
    assert_eq!(m.kappa(fresh_edge), 0);
    let fresh = triangle_kcore_decomposition(m.graph());
    for e in m.graph().edge_ids() {
        assert_eq!(m.kappa(e), fresh.kappa(e));
    }
}

#[test]
fn repeated_insert_remove_of_same_edge_is_stable() {
    // Toggling one edge 25 times must leave the graph and every κ exactly
    // where they started (ids may move; values by endpoints must not).
    let base = generators::planted_partition(2, 7, 0.8, 0.2, 5);
    let expected = triangle_kcore_decomposition(&base);
    let mut m = DynamicTriangleKCore::new(base.clone());
    let (u, v) = (VertexId(0), VertexId(1));
    assert!(m.graph().has_edge(u, v), "seed edge expected in partition");
    for _ in 0..25 {
        m.remove_edge_between(u, v).unwrap();
        m.insert_edge(u, v).unwrap();
    }
    assert_eq!(m.graph().num_edges(), base.num_edges());
    for (e0, a, b) in base.edges() {
        let e1 = m.graph().edge_between(a, b).expect("edge survived");
        assert_eq!(m.kappa(e1), expected.kappa(e0), "({a},{b})");
    }
}

#[test]
fn errors_are_reported_not_panicked() {
    let mut m = DynamicTriangleKCore::new(generators::path(3));
    assert!(matches!(
        m.insert_edge(VertexId(0), VertexId(0)),
        Err(GraphError::SelfLoop(_))
    ));
    assert!(matches!(
        m.insert_edge(VertexId(0), VertexId(1)),
        Err(GraphError::DuplicateEdge(..))
    ));
    assert!(matches!(
        m.remove_edge_between(VertexId(0), VertexId(2)),
        Err(GraphError::MissingEdge(..))
    ));
    // The failed operations left state intact.
    let fresh = triangle_kcore_decomposition(m.graph());
    for e in m.graph().edge_ids() {
        assert_eq!(m.kappa(e), fresh.kappa(e));
    }
}

#[test]
fn giant_star_plus_clique_handles_hub_skew() {
    // A 500-leaf star whose hub also sits in a K8: hub-degree skew stresses
    // the galloping triangle enumeration and the closure's supp counting.
    let mut g = generators::star(500);
    let base = g.num_vertices();
    g.add_vertices(7);
    let mut members: Vec<VertexId> = (base..base + 7).map(VertexId::from).collect();
    members.push(VertexId(0)); // the hub
    generators::plant_clique(&mut g, &members);
    let d = triangle_kcore_decomposition(&g);
    assert_eq!(d.max_kappa(), 6);
    let mut m = DynamicTriangleKCore::new(g);
    // Removing one clique edge demotes the K8 to 5.
    m.remove_edge_between(members[0], members[1]).unwrap();
    let fresh = triangle_kcore_decomposition(m.graph());
    for e in m.graph().edge_ids() {
        assert_eq!(m.kappa(e), fresh.kappa(e));
    }
}

#[test]
fn stored_variant_agrees_on_adversarial_shapes() {
    for g in [
        generators::complete(10),
        generators::cycle(30),
        generators::star(30),
        generators::watts_strogatz(60, 3, 0.2, 4),
        generators::connected_caveman(5, 5),
    ] {
        // Stored-triangle lists vs adjacency re-intersection, both held
        // to the definitional oracle.
        let stored = level_sync_forced(&g, 1, TriangleLookup::Stored);
        let streaming = level_sync_forced(&g, 1, TriangleLookup::Merge);
        assert_eq!(stored, streaming);
        assert_eq!(stored.kappa_slice(), naive_kappa(&g).as_slice());
        assert_eq!(stored, triangle_kcore_decomposition(&g));
    }
}

#[test]
fn batch_with_conflicting_ops_settles_consistently() {
    // Insert and remove the same pair within one batch, in both orders.
    let g = generators::planted_partition(2, 6, 0.7, 0.2, 9);
    let mut m = DynamicTriangleKCore::new(g);
    let (u, v) = (VertexId(0), VertexId(11));
    let had = m.graph().has_edge(u, v);
    m.apply_batch([
        BatchOp::Insert(u, v),
        BatchOp::Remove(u, v),
        BatchOp::Insert(u, v),
    ]);
    assert!(m.graph().has_edge(u, v) || had);
    let fresh = triangle_kcore_decomposition(m.graph());
    for e in m.graph().edge_ids() {
        assert_eq!(m.kappa(e), fresh.kappa(e));
    }
}
