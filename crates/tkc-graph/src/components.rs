//! Connectivity utilities: vertex components, BFS orders, and the
//! *triangle-connected* edge components used to extract individual Triangle
//! K-Cores (two edges are triangle-connected when a chain of triangles
//! sharing edges joins them).

use crate::graph::Graph;
use crate::ids::{EdgeId, VertexId};

/// Vertex connected components. Returns `(labels, count)` where
/// `labels[v] == usize::MAX` never occurs (isolated vertices get their own
/// component).
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.num_vertices();
    let mut label = vec![usize::MAX; n];
    let mut count = 0;
    let mut stack = Vec::new();
    for s in 0..n {
        if label[s] != usize::MAX {
            continue;
        }
        label[s] = count;
        stack.push(VertexId::from(s));
        while let Some(v) = stack.pop() {
            for (w, _) in g.neighbors(v) {
                if label[w.index()] == usize::MAX {
                    label[w.index()] = count;
                    stack.push(w);
                }
            }
        }
        count += 1;
    }
    (label, count)
}

/// BFS order from `start` (vertices reachable from it, in visit order).
pub fn bfs_order(g: &Graph, start: VertexId) -> Vec<VertexId> {
    let mut seen = vec![false; g.num_vertices()];
    let mut queue = std::collections::VecDeque::new();
    let mut order = Vec::new();
    seen[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for (w, _) in g.neighbors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                queue.push_back(w);
            }
        }
    }
    order
}

/// Groups the edges accepted by `keep` into triangle-connected components,
/// where only triangles whose three edges are all kept count as connectors.
/// Kept edges that lie in no kept triangle are omitted entirely (an edge
/// with no triangle is not part of any Triangle K-Core of number ≥ 1).
///
/// This is the extraction primitive for maximum Triangle K-Cores: with
/// `keep = |e| κ(e) >= k` for `k >= 1`, each returned component is one
/// Triangle K-Core of number ≥ `k` (paper Definition 4 / Claim 2).
/// Components are numbered by their smallest member edge id and list
/// their members in ascending id order. `keep` is called once per live
/// edge; see [`TriangleComponents`] for the kernel.
pub fn triangle_connected_components<F>(g: &Graph, keep: F) -> Vec<Vec<EdgeId>>
where
    F: Fn(EdgeId) -> bool,
{
    TriangleComponents::new(g, keep).members()
}

/// The Triangle K-Cores at one level, counted: what a `TRUSS k` reply
/// reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentSummary {
    /// Triangle-connected components (Triangle K-Cores at the level).
    pub components: usize,
    /// Edges across all components.
    pub edges: usize,
    /// Sum over components of the vertices each one spans (a vertex on
    /// two components counts twice).
    pub vertices: usize,
}

/// Marks a kept edge that lies in no kept triangle (union-find slot).
const NONE: u32 = u32::MAX;

/// The triangle-connected components of the edges a filter keeps,
/// computed by one oriented triangle pass over the kept subgraph:
///
/// 1. one scan over the live edges collects the kept ones, in ascending
///    id order, so an edge's position in that list is its dense `u32`
///    index;
/// 2. the kept subgraph is laid out as a degree-oriented CSR (each edge
///    directed from its lower-`(kept degree, id)` endpoint, out-lists
///    sorted by destination rank), as [`crate::csr::CsrGraph`] orients
///    the whole graph;
/// 3. each kept triangle is found exactly once, by merging the out-lists
///    of its lowest-ranked edge's endpoints, and its three edges are
///    joined in a `u32` union-find that always links the larger root
///    under the smaller, so every parent index is at most its child's;
/// 4. one ascending pass turns parents into component numbers: a root
///    is its set's smallest member, so components come out numbered by
///    smallest member edge id.
///
/// All scratch is `u32` (an out-list entry packs two) and sized to the
/// kept edges or the vertices. The reference this kernel is checked
/// against — a BFS that re-walks every kept edge's full adjacency —
/// lives in `tkc-verify`.
#[derive(Debug)]
pub struct TriangleComponents<'g> {
    g: &'g Graph,
    /// Kept edges in ascending id order (position = dense index).
    kept: Vec<EdgeId>,
    /// Component number per dense index, or [`NONE`].
    comp: Vec<u32>,
    /// Member edge count per component.
    sizes: Vec<u32>,
}

impl<'g> TriangleComponents<'g> {
    /// Runs the kernel over the live edges of `g` that `keep` accepts
    /// (`keep` is called once per live edge).
    pub fn new<F>(g: &'g Graph, keep: F) -> Self
    where
        F: Fn(EdgeId) -> bool,
    {
        let n = g.num_vertices();
        let mut kept = Vec::new();
        let mut deg = vec![0u32; n];
        for (e, u, v) in g.edges() {
            if keep(e) {
                kept.push(e);
                deg[u.index()] += 1;
                deg[v.index()] += 1;
            }
        }
        let rank = degree_rank(&deg);
        drop(deg);
        let (offsets, out) = oriented_out_lists(g, &kept, &rank);
        drop(rank);

        // Union-find over dense indices; NONE until the edge's first
        // kept triangle.
        let mut parent = vec![NONE; kept.len()];
        for r in 0..n {
            let (lo, hi) = (offsets[r] as usize, offsets[r + 1] as usize);
            for i in lo..hi {
                let first = out[i];
                let v = (first >> 32) as usize;
                let e_rv = first as u32;
                // Every common out-neighbor w of r and v ranks above v, so
                // only r's entries after v can match.
                let (mut a, mut b) = (i + 1, offsets[v] as usize);
                let b_end = offsets[v + 1] as usize;
                let mut root = NONE;
                while a < hi && b < b_end {
                    let (x, y) = (out[a], out[b]);
                    match (x >> 32).cmp(&(y >> 32)) {
                        std::cmp::Ordering::Less => a += 1,
                        std::cmp::Ordering::Greater => b += 1,
                        std::cmp::Ordering::Equal => {
                            if root == NONE {
                                root = find(&mut parent, e_rv);
                            }
                            root = union(&mut parent, root, x as u32);
                            root = union(&mut parent, root, y as u32);
                            a += 1;
                            b += 1;
                        }
                    }
                }
            }
        }
        drop((offsets, out));

        // Parents point at smaller indices, so in ascending order a
        // non-root's parent already holds its component number.
        let mut sizes: Vec<u32> = Vec::new();
        for i in 0..parent.len() {
            let p = parent[i];
            if p == NONE {
                continue;
            }
            // analyze: invariant(check_core_extraction)
            debug_assert!(p as usize <= i, "union-find parent above its child");
            let c = if p as usize == i {
                sizes.push(0);
                (sizes.len() - 1) as u32
            } else {
                parent[p as usize]
            };
            parent[i] = c;
            sizes[c as usize] += 1;
        }
        TriangleComponents {
            g,
            kept,
            comp: parent,
            sizes,
        }
    }

    /// Member edges of each component, ascending by id, components in
    /// order of their smallest member.
    pub fn members(&self) -> Vec<Vec<EdgeId>> {
        let mut out: Vec<Vec<EdgeId>> = self
            .sizes
            .iter()
            .map(|&s| Vec::with_capacity(s as usize))
            .collect();
        for (&e, &c) in self.kept.iter().zip(&self.comp) {
            if c != NONE {
                out[c as usize].push(e);
            }
        }
        out
    }

    /// [`Self::members`] paired with each component's spanned vertices
    /// (sorted), found by stamping endpoints rather than sorting them.
    pub fn members_with_vertices(&self) -> Vec<(Vec<EdgeId>, Vec<VertexId>)> {
        let mut stamp = vec![NONE; self.g.num_vertices()];
        self.members()
            .into_iter()
            .enumerate()
            .map(|(c, edges)| {
                let mut vs = Vec::new();
                for &e in &edges {
                    let (u, v) = self.g.endpoints(e);
                    for x in [u, v] {
                        if stamp[x.index()] != c as u32 {
                            stamp[x.index()] = c as u32;
                            vs.push(x);
                        }
                    }
                }
                vs.sort_unstable();
                (edges, vs)
            })
            .collect()
    }
}

/// [`ComponentSummary`] of every level of one κ vector at once: the
/// Triangle K-Cores nest (paper Definition 3 and Theorem 1), so one
/// union-find fed triangles in descending μ — the least κ of a
/// triangle's three edges — holds the level-`k` components after the
/// last triangle with `μ = k`.
///
/// [`TrussTable::new`] walks the levels from max κ down to 1:
///
/// 1. the live edges with κ ≥ 1 are counting-sorted by κ into per-vertex
///    incidence lists, each in descending κ, so the edges of level `k`
///    at a vertex are one run that follows the κ > `k` edges;
/// 2. each edge `e` with `κ(e) = k` (taken at its lower endpoint) merges
///    its endpoints' id-sorted adjacency lists and keeps a triangle only
///    when `e` is the least of its three edges by `(κ, edge id)`. That
///    is Rule 1's processing order, so every triangle is kept exactly
///    once, at its μ level, and the other two edges have κ ≥ `k`. The
///    three edges are joined in the same `u32` union-find as
///    [`TriangleComponents`], indexed by edge id;
/// 3. at the level boundary one pass over the κ ≥ `k` incidences counts
///    the edges in a kept triangle (each seen twice), the roots among
///    them (one per component), and the distinct `(vertex, root)` pairs
///    (the vertices column), deduplicated by stamping roots per vertex.
///
/// The counts hold for any κ vector, not only a decomposition: an edge
/// joins the union-find only through a kept triangle, so a level's
/// components are exactly those [`TriangleComponents`] finds with
/// `keep = |e| κ(e) >= k`. No triangle list is built; scratch is `u32`,
/// two slots per edge id and two per κ ≥ 1 edge.
#[derive(Debug)]
pub struct TrussTable {
    /// `levels[k - 1]` summarizes level `k`, for `k` in `1..=max κ`.
    levels: Vec<ComponentSummary>,
    /// Triangles with μ ≥ 1, each kept once.
    triangles: u64,
}

impl TrussTable {
    /// Builds the table of `g` under `kappa` (indexed by edge id; slots
    /// past its end read 0, dead slots are ignored).
    pub fn new(g: &Graph, kappa: &[u32]) -> Self {
        let kappa_of = |e: u32| kappa.get(e as usize).copied().unwrap_or(0);
        let n = g.num_vertices();

        // Counting sort of the κ ≥ 1 edges by κ, then each vertex's
        // incidence list filled from the top level down.
        let mut next: Vec<u32> = Vec::new();
        let mut offsets = vec![0u32; n + 1];
        for (e, u, v) in g.edges() {
            let k = kappa_of(e.0) as usize;
            if k == 0 {
                continue;
            }
            if next.len() <= k {
                next.resize(k + 1, 0);
            }
            next[k] += 1;
            offsets[u.index() + 1] += 1;
            offsets[v.index() + 1] += 1;
        }
        let max_level = next.len().saturating_sub(1);
        let mut acc = 0u32;
        for slot in next.iter_mut() {
            let count = *slot;
            *slot = acc;
            acc += count;
        }
        let mut order = vec![0u32; acc as usize];
        for (e, _, _) in g.edges() {
            let k = kappa_of(e.0) as usize;
            if k > 0 {
                order[next[k] as usize] = e.0;
                next[k] += 1;
            }
        }
        drop(next);
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut end = offsets[..n].to_vec();
        let mut incident = vec![0u32; offsets[n] as usize];
        for &e in order.iter().rev() {
            let (u, v) = g.endpoints(EdgeId(e));
            for x in [u.index(), v.index()] {
                incident[end[x] as usize] = e;
                end[x] += 1;
            }
        }
        drop(order);
        // Once level `k` is merged, `end[v]` marks where v's κ < k
        // entries start.
        end.copy_from_slice(&offsets[..n]);

        let mut parent = vec![NONE; g.edge_bound()];
        // One tick per (level, vertex), starting at 1 against zeroed
        // stamps: only the pages holding some level's roots are written.
        let mut stamp = vec![0u32; g.edge_bound()];
        let mut tick = 0u32;
        let mut triangles = 0u64;
        let mut levels = vec![ComponentSummary::default(); max_level];
        for k in (1..=max_level as u32).rev() {
            for v in 0..n {
                let stop = offsets[v + 1];
                while end[v] < stop {
                    let e = incident[end[v] as usize];
                    if kappa_of(e) != k {
                        break;
                    }
                    end[v] += 1;
                    let (a, b) = g.endpoints(EdgeId(e));
                    if a.index().min(b.index()) != v {
                        continue;
                    }
                    let key = (k, e);
                    let mut root = NONE;
                    g.for_each_triangle_on_edge(EdgeId(e), |_, e1, e2| {
                        if (kappa_of(e1.0), e1.0) > key && (kappa_of(e2.0), e2.0) > key {
                            triangles += 1;
                            if root == NONE {
                                root = find(&mut parent, e);
                            }
                            root = union(&mut parent, root, e1.0);
                            root = union(&mut parent, root, e2.0);
                        }
                    });
                }
            }

            let (mut incidences, mut roots, mut vertices) = (0usize, 0usize, 0usize);
            for v in 0..n {
                let run = &incident[offsets[v] as usize..end[v] as usize];
                if run.is_empty() {
                    continue;
                }
                tick = tick.checked_add(1).unwrap_or_else(|| {
                    stamp.fill(0);
                    1
                });
                for &e in run {
                    if parent[e as usize] == NONE {
                        continue;
                    }
                    let r = find(&mut parent, e);
                    incidences += 1;
                    roots += usize::from(r == e);
                    if stamp[r as usize] != tick {
                        stamp[r as usize] = tick;
                        vertices += 1;
                    }
                }
            }
            levels[k as usize - 1] = ComponentSummary {
                components: roots / 2,
                edges: incidences / 2,
                vertices,
            };
        }
        TrussTable { levels, triangles }
    }

    /// The summary at level `k`: all zeros above max κ, and at `k = 0`,
    /// which names no Triangle K-Core level.
    pub fn level(&self, k: u32) -> ComponentSummary {
        (k as usize)
            .checked_sub(1)
            .and_then(|i| self.levels.get(i))
            .copied()
            .unwrap_or_default()
    }

    /// Number of levels held: max κ over the live edges.
    pub fn max_level(&self) -> u32 {
        self.levels.len() as u32
    }

    /// Triangles whose three edges all have κ ≥ 1, each counted once.
    pub fn triangles(&self) -> u64 {
        self.triangles
    }
}

/// Ranks vertices by `(degree, id)` ascending with one counting sort.
fn degree_rank(deg: &[u32]) -> Vec<u32> {
    let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;
    let mut next = vec![0u32; max_deg + 1];
    for &d in deg {
        next[d as usize] += 1;
    }
    let mut acc = 0u32;
    for slot in next.iter_mut() {
        let count = *slot;
        *slot = acc;
        acc += count;
    }
    deg.iter()
        .map(|&d| {
            let r = next[d as usize];
            next[d as usize] += 1;
            r
        })
        .collect()
}

/// The degree-oriented CSR of the kept edges: `out[offsets[r]..][..len]`
/// holds rank `r`'s out-edges as `dst_rank << 32 | dense_index`,
/// ascending, so a merge compares the high halves.
fn oriented_out_lists(g: &Graph, kept: &[EdgeId], rank: &[u32]) -> (Vec<u32>, Vec<u64>) {
    let n = rank.len();
    let oriented = |e: EdgeId| {
        let (u, v) = g.endpoints(e);
        let (ru, rv) = (rank[u.index()], rank[v.index()]);
        if ru < rv {
            (ru, rv)
        } else {
            (rv, ru)
        }
    };
    let mut offsets = vec![0u32; n + 1];
    for &e in kept {
        offsets[oriented(e).0 as usize + 1] += 1;
    }
    for r in 0..n {
        offsets[r + 1] += offsets[r];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut out = vec![0u64; kept.len()];
    for (i, &e) in kept.iter().enumerate() {
        let (src, dst) = oriented(e);
        let slot = &mut cursor[src as usize];
        out[*slot as usize] = (u64::from(dst) << 32) | i as u64;
        *slot += 1;
    }
    drop(cursor);
    for r in 0..n {
        out[offsets[r] as usize..offsets[r + 1] as usize].sort_unstable();
    }
    (offsets, out)
}

/// Root of `x`'s set, halving the path on the way up.
#[inline]
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    if parent[x as usize] == NONE {
        parent[x as usize] = x;
        return x;
    }
    loop {
        let p = parent[x as usize];
        if p == x {
            return x;
        }
        let gp = parent[p as usize];
        parent[x as usize] = gp;
        x = gp;
    }
}

/// Joins `x`'s set to the set rooted at `root`, linking the larger root
/// under the smaller; returns the merged set's root.
#[inline]
fn union(parent: &mut [u32], root: u32, x: u32) -> u32 {
    let rx = find(parent, x);
    if rx == root {
        root
    } else if rx < root {
        parent[root as usize] = rx;
        rx
    } else {
        parent[rx as usize] = root;
        root
    }
}

/// The set of vertices spanned by a set of edges (sorted, deduplicated).
pub fn edge_set_vertices(g: &Graph, edges: &[EdgeId]) -> Vec<VertexId> {
    let mut vs: Vec<VertexId> = edges
        .iter()
        .flat_map(|&e| {
            let (u, v) = g.endpoints(e);
            [u, v]
        })
        .collect();
    vs.sort_unstable();
    vs.dedup();
    vs
}

/// Builds the subgraph induced by an edge subset, relabelling vertices to
/// `0..k`. Returns the subgraph plus the mapping `new -> old`.
pub fn edge_subgraph(g: &Graph, edges: &[EdgeId]) -> (Graph, Vec<VertexId>) {
    let vs = edge_set_vertices(g, edges);
    let mut index = crate::hash::FxHashMap::default();
    for (i, &v) in vs.iter().enumerate() {
        index.insert(v, i as u32);
    }
    let mut sub = Graph::with_capacity(vs.len(), edges.len());
    for &e in edges {
        let (u, v) = g.endpoints(e);
        sub.add_edge(VertexId(index[&u]), VertexId(index[&v]))
            .expect("edge subset contains duplicates");
    }
    (sub, vs)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn components_of_disjoint_pieces() {
        // Triangle {0,1,2}, edge {3,4}, isolated 5.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)]);
        let (label, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(label[0], label[1]);
        assert_eq!(label[1], label[2]);
        assert_eq!(label[3], label[4]);
        assert_ne!(label[0], label[3]);
        assert_ne!(label[5], label[0]);
        assert_ne!(label[5], label[3]);
    }

    #[test]
    fn bfs_visits_reachable_set_in_layers() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 3), (4, 3)]);
        let order = bfs_order(&g, VertexId(0));
        assert_eq!(order[0], VertexId(0));
        assert_eq!(order.len(), 5);
        let pos = |v: u32| order.iter().position(|&x| x == VertexId(v)).unwrap();
        assert!(pos(1) < pos(3));
        assert!(pos(3) < pos(4));
    }

    #[test]
    fn triangle_components_split_on_shared_vertex() {
        // Two triangles sharing only vertex 2: edge sets are triangle-
        // connected within each triangle but not across.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]);
        let comps = triangle_connected_components(&g, |_| true);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 3);
        assert_eq!(comps[1].len(), 3);
    }

    #[test]
    fn triangle_components_merge_on_shared_edge() {
        // Two triangles sharing edge {1,2}: one component of 5 edges.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let comps = triangle_connected_components(&g, |_| true);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 5);
    }

    #[test]
    fn triangle_components_respect_filter() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let e03 = g.edge_between(VertexId(1), VertexId(3)).unwrap();
        // Excluding one side of the second triangle leaves only the first.
        let comps = triangle_connected_components(&g, |e| e != e03);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 3);
    }

    #[test]
    fn triangle_components_skip_triangle_free_edges() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let comps = triangle_connected_components(&g, |_| true);
        assert!(comps.is_empty());
    }

    /// Level `k` of the kernel, counted from its member lists.
    fn kernel_level(g: &Graph, kappa: &[u32], k: u32) -> ComponentSummary {
        let comps = TriangleComponents::new(g, |e| kappa[e.index()] >= k).members_with_vertices();
        ComponentSummary {
            components: comps.len(),
            edges: comps.iter().map(|(es, _)| es.len()).sum(),
            vertices: comps.iter().map(|(_, vs)| vs.len()).sum(),
        }
    }

    #[test]
    fn truss_table_matches_the_kernel_at_every_level() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        for seed in 0..8 {
            let mut g = crate::generators::holme_kim(90, 4, 0.6, seed);
            let mut rng = SmallRng::seed_from_u64(seed);
            // Dead slots, then reused slots out of id order.
            let victims: Vec<EdgeId> = g.edge_ids().filter(|_| rng.gen_bool(0.2)).collect();
            for e in victims {
                g.remove_edge(e).unwrap();
            }
            for v in 0..6u32 {
                let _ = g.add_edge(VertexId(v), VertexId(v + 40));
            }
            // Any κ vector, not only a decomposition; dead slots hold junk.
            let kappa: Vec<u32> = (0..g.edge_bound()).map(|_| rng.gen_range(0..7)).collect();
            let table = TrussTable::new(&g, &kappa);
            let max = g.edge_ids().map(|e| kappa[e.index()]).max().unwrap_or(0);
            assert_eq!(table.max_level(), max, "seed {seed}");
            assert_eq!(table.level(0), ComponentSummary::default());
            for k in 1..=max + 1 {
                assert_eq!(
                    table.level(k),
                    kernel_level(&g, &kappa, k),
                    "seed {seed} k {k}"
                );
            }
            // With every edge at κ ≥ 1 each triangle is kept exactly once.
            let ones: Vec<u32> = kappa.iter().map(|&k| k.max(1)).collect();
            assert_eq!(
                TrussTable::new(&g, &ones).triangles(),
                crate::triangles::triangle_count(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn truss_table_of_a_triangle_free_graph_is_empty() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let table = TrussTable::new(&g, &[]);
        assert_eq!((table.max_level(), table.triangles()), (0, 0));
        assert_eq!(table.level(1), ComponentSummary::default());
        // κ ≥ 1 on edges in no kept triangle: levels exist but hold nothing.
        let table = TrussTable::new(&g, &[2, 2]);
        assert_eq!(table.max_level(), 2);
        assert_eq!(table.level(1), ComponentSummary::default());
    }

    #[test]
    fn subgraph_relabels_and_maps_back() {
        let g = Graph::from_edges(6, [(2, 4), (4, 5), (2, 5), (0, 1)]);
        let tri_edges: Vec<EdgeId> = g
            .edges()
            .filter(|&(_, u, _)| u != VertexId(0))
            .map(|(e, _, _)| e)
            .collect();
        let (sub, back) = edge_subgraph(&g, &tri_edges);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(back, vec![VertexId(2), VertexId(4), VertexId(5)]);
        sub.check_invariants().unwrap();
    }
}
