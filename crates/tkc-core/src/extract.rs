//! Extraction of concrete Triangle K-Core subgraphs from a decomposition:
//! per-edge maximum cores (Definition 4), level sets, the full core
//! hierarchy, and surfacing of exact cliques (an `n`-clique is precisely an
//! `n`-vertex Triangle K-Core of number `n − 2`).

use tkc_graph::components::TriangleComponents;
use tkc_graph::{EdgeId, Graph, VertexId};

use crate::decompose::Decomposition;

/// One extracted Triangle K-Core: a triangle-connected set of edges all of
/// whose κ is at least `level`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Core {
    /// The guaranteed Triangle K-Core number of this subgraph.
    pub level: u32,
    /// Member edges (sorted by id).
    pub edges: Vec<EdgeId>,
    /// Spanned vertices (sorted).
    pub vertices: Vec<VertexId>,
}

impl Core {
    /// True when this core is an exact clique: `|V|`-vertex Triangle
    /// K-Core of number `|V| − 2` with all `C(|V|, 2)` edges present.
    pub fn is_clique(&self) -> bool {
        let n = self.vertices.len();
        n >= 2 && self.edges.len() == n * (n - 1) / 2
    }

    /// The paper's density proxy for this core: `level + 2` vertices of
    /// clique-like interaction.
    pub fn co_clique_size(&self) -> u32 {
        self.level + 2
    }
}

/// All maximal Triangle K-Cores of number ≥ `k` (for `k ≥ 1`): the
/// triangle-connected components of edges with `κ ≥ k` (Claim 2), in
/// order of their smallest edge id. Empty, without a scan, above max κ.
pub fn cores_at_level(g: &Graph, decomp: &Decomposition, k: u32) -> Vec<Core> {
    assert!(k >= 1, "level-0 cores are the whole graph");
    if k > decomp.max_kappa() {
        return Vec::new();
    }
    TriangleComponents::new(g, |e| decomp.kappa(e) >= k)
        .members_with_vertices()
        .into_iter()
        .map(|(edges, vertices)| Core {
            level: k,
            edges,
            vertices,
        })
        .collect()
}

/// The maximum Triangle K-Core containing edge `e` (Definition 4): the
/// triangle-connected component of `e` among edges with `κ ≥ κ(e)`.
/// Returns `None` when `κ(e) == 0` (the edge is in no triangle core).
pub fn maximum_core_of_edge(g: &Graph, decomp: &Decomposition, e: EdgeId) -> Option<Core> {
    let k = decomp.kappa(e);
    if k == 0 {
        return None;
    }
    cores_at_level(g, decomp, k)
        .into_iter()
        .find(|c| c.edges.binary_search(&e).is_ok())
}

/// The nested hierarchy of cores for every level `1..=max_kappa`, densest
/// last. `hierarchy[k-1]` holds the cores of level `k`.
pub fn core_hierarchy(g: &Graph, decomp: &Decomposition) -> Vec<Vec<Core>> {
    (1..=decomp.max_kappa())
        .map(|k| cores_at_level(g, decomp, k))
        .collect()
}

/// Cores at the top level that are exact cliques — the "flat peaks" the
/// paper's plots highlight (§VII-B). Returns cliques of any level whose
/// vertex count equals `level + 2`, scanning from the densest level down
/// until at least `want` cliques are found (or levels are exhausted).
pub fn densest_cliques(g: &Graph, decomp: &Decomposition, want: usize) -> Vec<Core> {
    let mut found = Vec::new();
    for k in (1..=decomp.max_kappa()).rev() {
        for core in cores_at_level(g, decomp, k) {
            if core.is_clique() && core.vertices.len() as u32 == k + 2 {
                found.push(core);
            }
        }
        if found.len() >= want {
            break;
        }
    }
    found
}

/// Community search: the Triangle K-Core community of a *query vertex* at
/// level `k` — the union of level-`k` cores touching `v`. Returns one core
/// per triangle-connected component (a vertex can belong to several
/// communities at low `k`). Empty when no incident edge reaches κ ≥ k.
pub fn communities_of_vertex(g: &Graph, decomp: &Decomposition, v: VertexId, k: u32) -> Vec<Core> {
    cores_at_level(g, decomp, k)
        .into_iter()
        .filter(|c| c.vertices.binary_search(&v).is_ok())
        .collect()
}

/// Summary statistics of a decomposition, for reports and dashboards.
#[derive(Debug, Clone, PartialEq)]
pub struct KappaStats {
    /// Number of live edges.
    pub edges: usize,
    /// Largest κ.
    pub max_kappa: u32,
    /// Mean κ over live edges.
    pub mean_kappa: f64,
    /// Fraction of edges with κ = 0 (triangle-free edges).
    pub triangle_free_fraction: f64,
    /// Number of maximal cores at the top level.
    pub top_level_cores: usize,
}

/// Computes [`KappaStats`] for a decomposition.
pub fn kappa_stats(g: &Graph, decomp: &Decomposition) -> KappaStats {
    let hist = decomp.histogram();
    let edges: usize = hist.iter().sum();
    let sum: u64 = hist
        .iter()
        .enumerate()
        .map(|(k, &c)| k as u64 * c as u64)
        .sum();
    let top_level_cores = if decomp.max_kappa() >= 1 {
        cores_at_level(g, decomp, decomp.max_kappa()).len()
    } else {
        0
    };
    KappaStats {
        edges,
        max_kappa: decomp.max_kappa(),
        mean_kappa: if edges == 0 {
            0.0
        } else {
            sum as f64 / edges as f64
        },
        triangle_free_fraction: if edges == 0 {
            0.0
        } else {
            hist.first().copied().unwrap_or(0) as f64 / edges as f64
        },
        top_level_cores,
    }
}

/// For each vertex, the largest κ among incident edges (the per-vertex
/// density the plots draw; 0 for vertices with no triangles).
pub fn vertex_density(g: &Graph, decomp: &Decomposition) -> Vec<u32> {
    let mut best = vec![0u32; g.num_vertices()];
    for (e, u, v) in g.edges() {
        let k = decomp.kappa(e);
        best[u.index()] = best[u.index()].max(k);
        best[v.index()] = best[v.index()].max(k);
    }
    best
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::decompose::triangle_kcore_decomposition;
    use crate::reference::is_triangle_kcore;
    use tkc_graph::generators;

    fn two_cliques() -> Graph {
        // K5 on 0..5 and K4 on 5..9, joined by one edge.
        let mut g = generators::complete(5);
        g.add_vertices(4);
        for i in 5..9u32 {
            for j in (i + 1)..9 {
                g.add_edge(VertexId(i), VertexId(j)).unwrap();
            }
        }
        g.add_edge(VertexId(4), VertexId(5)).unwrap();
        g
    }

    #[test]
    fn level_sets_separate_the_cliques() {
        let g = two_cliques();
        let d = triangle_kcore_decomposition(&g);
        let lvl2 = cores_at_level(&g, &d, 2);
        assert_eq!(lvl2.len(), 2);
        let lvl3 = cores_at_level(&g, &d, 3);
        assert_eq!(lvl3.len(), 1);
        assert_eq!(lvl3[0].vertices.len(), 5);
        assert!(lvl3[0].is_clique());
        assert_eq!(lvl3[0].co_clique_size(), 5);
        // Every extracted core satisfies Definition 3 at its level.
        for core in lvl2.iter().chain(&lvl3) {
            assert!(is_triangle_kcore(&g, &core.edges, core.level));
        }
        // Above max κ: empty.
        assert_eq!(d.max_kappa(), 3);
        assert!(cores_at_level(&g, &d, 4).is_empty());
    }

    #[test]
    fn maximum_core_of_edge_matches_definition() {
        let g = two_cliques();
        let d = triangle_kcore_decomposition(&g);
        let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        let core = maximum_core_of_edge(&g, &d, e).unwrap();
        assert_eq!(core.level, 3);
        assert_eq!(core.vertices.len(), 5);
        // The bridge edge is in no triangle: no core.
        let bridge = g.edge_between(VertexId(4), VertexId(5)).unwrap();
        assert_eq!(d.kappa(bridge), 0);
        assert!(maximum_core_of_edge(&g, &d, bridge).is_none());
    }

    #[test]
    fn theorem_1_holds_inside_maximum_cores() {
        // Theorem 1: for any triangle T inside e's maximum core,
        // κ(other edges of T) >= κ(e).
        let g = generators::planted_partition(3, 7, 0.75, 0.08, 11);
        let d = triangle_kcore_decomposition(&g);
        for e in g.edge_ids() {
            if let Some(core) = maximum_core_of_edge(&g, &d, e) {
                let set: std::collections::HashSet<_> = core.edges.iter().copied().collect();
                g.for_each_triangle_on_edge(e, |_, e1, e2| {
                    if set.contains(&e1) && set.contains(&e2) {
                        assert!(d.kappa(e1) >= d.kappa(e));
                        assert!(d.kappa(e2) >= d.kappa(e));
                    }
                });
            }
        }
    }

    #[test]
    fn hierarchy_is_nested() {
        let g = two_cliques();
        let d = triangle_kcore_decomposition(&g);
        let h = core_hierarchy(&g, &d);
        assert_eq!(h.len(), d.max_kappa() as usize);
        // Every edge at level k+1 appears at level k too.
        for k in 1..h.len() {
            let upper: std::collections::HashSet<_> =
                h[k].iter().flat_map(|c| c.edges.iter().copied()).collect();
            let lower: std::collections::HashSet<_> = h[k - 1]
                .iter()
                .flat_map(|c| c.edges.iter().copied())
                .collect();
            assert!(upper.is_subset(&lower));
        }
    }

    #[test]
    fn densest_cliques_finds_planted_structure() {
        let mut g = generators::gnp(40, 0.06, 13);
        let base = g.num_vertices();
        generators::plant_fresh_cliques(&mut g, 2, 6, 2, 5);
        let d = triangle_kcore_decomposition(&g);
        let cliques = densest_cliques(&g, &d, 2);
        assert!(!cliques.is_empty());
        let top = &cliques[0];
        assert!(top.vertices.len() >= 6);
        assert!(top.vertices.iter().any(|v| v.index() >= base));
    }

    #[test]
    fn vertex_density_tracks_best_incident_edge() {
        let g = two_cliques();
        let d = triangle_kcore_decomposition(&g);
        let dens = vertex_density(&g, &d);
        assert_eq!(dens[0], 3); // inside K5
        assert_eq!(dens[8], 2); // inside K4
        assert_eq!(dens[4], 3); // K5 member that also holds the bridge
    }

    #[test]
    #[should_panic(expected = "level-0")]
    fn level_zero_extraction_is_rejected() {
        let g = generators::complete(3);
        let d = triangle_kcore_decomposition(&g);
        let _ = cores_at_level(&g, &d, 0);
    }

    #[test]
    fn community_search_finds_the_query_vertex_groups() {
        let g = two_cliques();
        let d = triangle_kcore_decomposition(&g);
        // Vertex 0 lives in the K5 only.
        let comms = communities_of_vertex(&g, &d, VertexId(0), 2);
        assert_eq!(comms.len(), 1);
        assert_eq!(comms[0].vertices.len(), 5);
        // Vertex 4 (K5 member holding the bridge): still just the K5 at k=2.
        let comms = communities_of_vertex(&g, &d, VertexId(4), 2);
        assert_eq!(comms.len(), 1);
        // At an unreachable level: nothing.
        assert!(communities_of_vertex(&g, &d, VertexId(8), 3).is_empty());
    }

    #[test]
    fn stats_summarize_the_decomposition() {
        let g = two_cliques();
        let d = triangle_kcore_decomposition(&g);
        let stats = kappa_stats(&g, &d);
        assert_eq!(stats.edges, g.num_edges());
        assert_eq!(stats.max_kappa, 3);
        assert_eq!(stats.top_level_cores, 1);
        // One bridge edge has κ = 0.
        assert!(stats.triangle_free_fraction > 0.0);
        assert!(stats.mean_kappa > 2.0);

        let empty = Graph::new();
        let d = triangle_kcore_decomposition(&empty);
        let stats = kappa_stats(&empty, &d);
        assert_eq!(stats.edges, 0);
        assert_eq!(stats.mean_kappa, 0.0);
    }
}
