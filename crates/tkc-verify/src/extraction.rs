//! Reference oracle for Triangle K-Core extraction: a breadth-first walk
//! over triangles that shares no code with the production kernel
//! ([`tkc_graph::components::TriangleComponents`]), and
//! [`check_core_extraction`], which holds the kernel's cores and the
//! per-level [`TrussTable`] to the walk at every level.

use tkc_core::decompose::Decomposition;
use tkc_core::extract::cores_at_level;
use tkc_graph::components::{edge_set_vertices, TrussTable};
use tkc_graph::{EdgeId, Graph, VertexId};

use crate::differential::Mismatch;

/// Triangle-connected components of the edges `keep` accepts, by BFS:
/// seed from each unvisited kept edge that has a fully kept triangle and
/// flood through every fully kept triangle on each reached edge, merging
/// both endpoints' full adjacency lists. Every kept triangle is therefore
/// met about three times — the cost the production kernel avoids — but
/// the walk is short and obviously follows the definition. Components
/// are numbered by their smallest member edge id, members ascending.
pub fn triangle_connected_components_bfs<F>(g: &Graph, keep: F) -> Vec<Vec<EdgeId>>
where
    F: Fn(EdgeId) -> bool,
{
    let bound = g.edge_bound();
    // usize::MAX = unvisited, usize::MAX - 1 = visited but triangle-free.
    const SKIP: usize = usize::MAX - 1;
    let mut label = vec![usize::MAX; bound];
    let mut comps: Vec<Vec<EdgeId>> = Vec::new();
    let mut stack: Vec<EdgeId> = Vec::new();
    for e in g.edge_ids() {
        if !keep(e) || label[e.index()] != usize::MAX {
            continue;
        }
        // Seed only from edges that have at least one fully-kept triangle.
        let mut has_kept_triangle = false;
        g.for_each_triangle_on_edge(e, |_, e1, e2| {
            has_kept_triangle |= keep(e1) && keep(e2);
        });
        if !has_kept_triangle {
            label[e.index()] = SKIP;
            continue;
        }
        let id = comps.len();
        let mut members = Vec::new();
        label[e.index()] = id;
        stack.push(e);
        while let Some(x) = stack.pop() {
            members.push(x);
            g.for_each_triangle_on_edge(x, |_, e1, e2| {
                if keep(e1) && keep(e2) {
                    for y in [e1, e2] {
                        if label[y.index()] == usize::MAX {
                            label[y.index()] = id;
                            stack.push(y);
                        }
                    }
                }
            });
        }
        members.sort_unstable();
        comps.push(members);
    }
    comps
}

/// Cross-checks core extraction on `g` with the κ vector `kappa` (raw
/// edge-id indexed, dead slots ignored): at every level `k` from 1 to
/// max κ + 1, [`cores_at_level`] must list the same cores as the BFS
/// oracle — same order, same member edges, same sorted vertices — and
/// the [`TrussTable`] built once for all levels must report the same
/// core, edge and vertex totals. On a disagreement the [`Mismatch`] names
/// the first edge of the first differing core (`(u32::MAX, u32::MAX)`
/// when a total differs) and carries the kernel's and the oracle's core
/// counts at that level (`dynamic` / `fresh`), or for `truss-table` the
/// differing totals.
pub fn check_core_extraction(g: &Graph, kappa: &[u32]) -> Result<(), Mismatch> {
    let decomp = Decomposition::from_kappa(g, kappa.to_vec());
    let kappa_of = |e: EdgeId| kappa.get(e.index()).copied().unwrap_or(0);
    let table = TrussTable::new(g, kappa);
    for k in 1..=decomp.max_kappa() + 1 {
        let oracle: Vec<(Vec<EdgeId>, Vec<VertexId>)> =
            triangle_connected_components_bfs(g, |e| kappa_of(e) >= k)
                .into_iter()
                .map(|edges| {
                    let vertices = edge_set_vertices(g, &edges);
                    (edges, vertices)
                })
                .collect();
        let kernel = cores_at_level(g, &decomp, k);
        let differs =
            (0..oracle.len().max(kernel.len())).find(|&i| match (kernel.get(i), oracle.get(i)) {
                (Some(c), Some((edges, vertices))) => {
                    c.level != k || c.edges != *edges || c.vertices != *vertices
                }
                _ => true,
            });
        if let Some(i) = differs {
            let first = oracle
                .get(i)
                .and_then(|(edges, _)| edges.first())
                .or_else(|| kernel.get(i).and_then(|c| c.edges.first()));
            return Err(Mismatch {
                edge: first
                    .and_then(|&e| g.endpoints_checked(e))
                    .map_or((u32::MAX, u32::MAX), |(u, v)| (u.0, v.0)),
                dynamic: kernel.len() as u32,
                fresh: oracle.len() as u32,
                oracle: "core-extraction",
            });
        }
        let summary = table.level(k);
        let want = [
            oracle.len(),
            oracle.iter().map(|(edges, _)| edges.len()).sum(),
            oracle.iter().map(|(_, vertices)| vertices.len()).sum(),
        ];
        let got = [summary.components, summary.edges, summary.vertices];
        if let Some((&got, &want)) = got.iter().zip(&want).find(|(a, b)| a != b) {
            return Err(Mismatch {
                edge: (u32::MAX, u32::MAX),
                dynamic: got as u32,
                fresh: want as u32,
                oracle: "truss-table",
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use tkc_core::decompose::triangle_kcore_decomposition;
    use tkc_graph::generators;

    #[test]
    fn oracle_splits_on_shared_vertex_and_merges_on_shared_edge() {
        let bowtie = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]);
        let comps = triangle_connected_components_bfs(&bowtie, |_| true);
        assert_eq!(comps.iter().map(Vec::len).collect::<Vec<_>>(), [3, 3]);
        let diamond = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(
            triangle_connected_components_bfs(&diamond, |_| true).len(),
            1
        );
        let path = Graph::from_edges(3, [(0, 1), (1, 2)]);
        assert!(triangle_connected_components_bfs(&path, |_| true).is_empty());
    }

    #[test]
    fn kernel_matches_oracle_with_dead_slots() {
        for seed in 0..6 {
            let mut g = generators::holme_kim(60, 3, 0.7, seed);
            let d = triangle_kcore_decomposition(&g);
            check_core_extraction(&g, d.kappa_slice()).unwrap();
            let victims: Vec<_> = g.edge_ids().step_by(4).collect();
            for e in victims {
                g.remove_edge(e).unwrap();
            }
            // Re-add a few so freed slots are reused out of id order.
            for v in 0..5u32 {
                let _ = g.add_edge(VertexId(v), VertexId(v + 30));
            }
            let d = triangle_kcore_decomposition(&g);
            check_core_extraction(&g, d.kappa_slice()).unwrap();
        }
    }

    #[test]
    fn a_wrong_kappa_vector_still_extracts_consistently() {
        // The check compares kernel and oracle on the same κ, so it holds
        // for any filter, not only a correct decomposition.
        let g = generators::complete(7);
        let kappa: Vec<u32> = (0..g.edge_bound() as u32).map(|i| i % 5).collect();
        check_core_extraction(&g, &kappa).unwrap();
    }
}
