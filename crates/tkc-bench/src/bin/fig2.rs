#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! Figure 2 — the worked example of Algorithm 1: the 5-vertex graph whose
//! edges start with support {AB:1, AC:1, BD:2, BE:2, CD:2, CE:2, DE:2,
//! BC:3} and end with κ(AB) = κ(AC) = 1, everything else 2.

use tkc_core::decompose::triangle_kcore_decomposition;
use tkc_graph::triangles::edge_supports;
use tkc_graph::{Graph, VertexId};

fn main() {
    let names = ["A", "B", "C", "D", "E"];
    let g = Graph::from_edges(
        5,
        [
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
        ],
    );
    let sup = edge_supports(&g);
    println!("Figure 2: Algorithm 1 walkthrough\n");
    println!("initial support (the κ̃ upper bounds):");
    for (e, u, v) in g.edges() {
        println!(
            "  {}{}: {}",
            names[u.index()],
            names[v.index()],
            sup[e.index()]
        );
    }
    let d = triangle_kcore_decomposition(&g);
    println!("\nκ per edge (increasing κ, edge id within a level):");
    let mut edges: Vec<_> = g.edge_ids().collect();
    edges.sort_by_key(|&e| (d.kappa(e), e));
    for e in edges {
        let (u, v) = g.endpoints(e);
        println!(
            "  {}{}  →  κ = {}",
            names[u.index()],
            names[v.index()],
            d.kappa(e)
        );
    }
    let k = |u: u32, v: u32| d.kappa(g.edge_between(VertexId(u), VertexId(v)).unwrap());
    assert_eq!(k(0, 1), 1, "AB");
    assert_eq!(k(0, 2), 1, "AC");
    assert_eq!(k(1, 2), 2, "BC peeled from 3 to 2");
    println!("\nresult matches the paper: κ(AB)=κ(AC)=1, all other edges κ=2.");
}
