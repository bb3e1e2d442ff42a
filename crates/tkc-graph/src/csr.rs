//! Read-only CSR snapshot with degree-oriented, exactly-once triangle
//! enumeration — the fast support kernel behind Algorithm 1.
//!
//! [`crate::triangles::edge_supports`] walks the mutable [`Graph`]'s
//! per-vertex `Vec<(VertexId, EdgeId)>` adjacency: pointer-chasing through
//! `m` little heap allocations, merging *full* neighbor lists per edge
//! (`O(Σ_e min(deg u, deg v))` probes), and (in the seed's parallel path)
//! touching every triangle three times. [`CsrGraph::freeze`] snapshots the
//! graph into three flat arrays — `offsets` / `nbr` / `eid` — holding only
//! the **degree-oriented** half of each edge:
//!
//! * vertices are ranked by `(degree, id)` ascending and every edge is
//!   directed from its lower-ranked endpoint to its higher-ranked one, so
//!   hubs keep tiny out-lists (the classic Chiba–Nishizeki / compact-
//!   forward orientation);
//! * out-lists are sorted by destination rank, so the common-out-neighbor
//!   scan for a directed edge `u→v` is a linear merge of two short sorted
//!   runs — no hash probes, no binary search;
//! * each triangle `{u, v, w}` (ranks `u < v < w`) is discovered exactly
//!   once, at its lowest-ranked directed edge `u→v`, and credits all three
//!   original [`EdgeId`]s via the `eid` side array.
//!
//! The snapshot also carries a per-vertex prefix sum of estimated merge
//! work, so the parallel entry points can cut the rank range into chunks of
//! equal *work* (not equal vertex or edge count) before handing them to the
//! shared [`WorkerPool`]. Dense small graphs therefore parallelize and
//! skewed degree sequences don't strand one thread with all the hubs.
//!
//! Snapshots are immutable: mutate the [`Graph`] and freeze again. The
//! dynamic maintainer keeps using the mutable adjacency (its edits are
//! local); the batch paths — initial decomposition supports, whole-graph
//! counting — are the snapshot users.

use std::sync::Arc;

use crate::graph::Graph;
use crate::ids::{EdgeId, VertexId};
use crate::pool::WorkerPool;

/// Minimum [`CsrGraph::total_work`] (estimated intersection probes) before
/// the parallel snapshot kernels fan out to the worker pool. Below this a
/// pool round-trip plus the per-chunk accumulator merge costs more than
/// the whole sequential enumeration; measured on the BENCH_decompose
/// graph families (the smallest, `holme_kim` quick mode, sits well above
/// it at ~7e5 probes).
pub const PARALLEL_CSR_WORK_MIN: u64 = 1 << 15;

/// An immutable degree-oriented CSR snapshot of a [`Graph`].
///
/// # Examples
///
/// ```
/// use tkc_graph::{csr::CsrGraph, generators};
///
/// let g = generators::complete(5);
/// let snap = CsrGraph::freeze(&g);
/// assert_eq!(snap.triangle_count(), 10); // C(5,3)
/// let sup = snap.edge_supports();
/// assert!(g.edge_ids().all(|e| sup[e.index()] == 3));
/// ```
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// Out-list boundaries per rank: out-edges of rank `r` live at
    /// `nbr[offsets[r]..offsets[r+1]]`. Length `n + 1`.
    offsets: Vec<u32>,
    /// Destination *rank* of each oriented edge, ascending within a list.
    nbr: Vec<u32>,
    /// Original edge id of each oriented edge (parallel to `nbr`).
    eid: Vec<EdgeId>,
    /// Original vertex id of each rank.
    vertex_of_rank: Vec<VertexId>,
    /// `Graph::edge_bound()` at freeze time — sizes support vectors so raw
    /// edge ids (dead slots included) stay valid indices.
    edge_bound: usize,
    /// Live edge count at freeze time.
    num_edges: usize,
    /// Prefix sums of per-rank estimated merge work. Length `n + 1`;
    /// `work[r+1] - work[r]` is the cost estimate of processing rank `r`.
    work: Vec<u64>,
}

impl CsrGraph {
    /// Snapshots `g` into oriented CSR form. `O(n + m)` time and space;
    /// no sorting pass is needed because destinations are appended in
    /// ascending rank order.
    pub fn freeze(g: &Graph) -> CsrGraph {
        let n = g.num_vertices();
        // Rank vertices by (degree, id) ascending via counting sort on
        // degree — O(n + max_deg).
        let max_deg = (0..n)
            .map(|v| g.degree(VertexId::from(v)))
            .max()
            .unwrap_or(0);
        let mut deg_count = vec![0u32; max_deg + 2];
        for v in 0..n {
            deg_count[g.degree(VertexId::from(v))] += 1;
        }
        let mut start = 0u32;
        for c in deg_count.iter_mut() {
            let count = *c;
            *c = start;
            start += count;
        }
        let mut vertex_of_rank = vec![VertexId(0); n];
        let mut rank = vec![0u32; n];
        for (v, rank_slot) in rank.iter_mut().enumerate() {
            // Ascending vertex id within a degree class keeps ties
            // deterministic: rank order is (degree, id).
            let d = g.degree(VertexId::from(v));
            let r = deg_count[d];
            deg_count[d] += 1;
            vertex_of_rank[r as usize] = VertexId::from(v);
            *rank_slot = r;
        }

        // Count out-degrees: each edge belongs to its lower-ranked endpoint.
        let mut offsets = vec![0u32; n + 1];
        for (_, u, v) in g.edges() {
            let src = rank[u.index()].min(rank[v.index()]);
            offsets[src as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let m = g.num_edges();
        let mut nbr = vec![0u32; m];
        let mut eid = vec![EdgeId(0); m];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        // Visit destinations in ascending rank; appending to each source's
        // out-list then yields lists already sorted by destination rank.
        for (r, &v) in vertex_of_rank.iter().enumerate() {
            let r = r as u32;
            for (u, e) in g.neighbors(v) {
                let ru = rank[u.index()];
                if ru < r {
                    let slot = cursor[ru as usize] as usize;
                    nbr[slot] = r;
                    eid[slot] = e;
                    cursor[ru as usize] += 1;
                }
            }
        }

        // Per-rank merge-work estimate: intersecting out(u) with out(v)
        // scans at most |out(u)| + |out(v)| entries; the +1 keeps chunk
        // boundaries meaningful on triangle-free stretches.
        let out_len = |r: usize| (offsets[r + 1] - offsets[r]) as u64;
        let mut work = vec![0u64; n + 1];
        for r in 0..n {
            let (s, e) = (offsets[r] as usize, offsets[r + 1] as usize);
            let mut w = 0u64;
            for &dst in &nbr[s..e] {
                w += 1 + out_len(r) + out_len(dst as usize);
            }
            work[r + 1] = work[r] + w;
        }

        CsrGraph {
            offsets,
            nbr,
            eid,
            vertex_of_rank,
            edge_bound: g.edge_bound(),
            num_edges: m,
            work,
        }
    }

    /// Number of vertices in the snapshot.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertex_of_rank.len()
    }

    /// Number of live edges captured by the snapshot.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The source graph's `edge_bound()` at freeze time (length of the
    /// support vectors this snapshot produces).
    #[inline]
    pub fn edge_bound(&self) -> usize {
        self.edge_bound
    }

    /// Total estimated intersection work — the parallel cutoff driver.
    #[inline]
    pub fn total_work(&self) -> u64 {
        *self.work.last().unwrap_or(&0)
    }

    /// The original vertex behind a rank (ranks are `(degree, id)`
    /// ascending).
    #[inline]
    pub fn vertex_of_rank(&self, rank: usize) -> VertexId {
        self.vertex_of_rank[rank]
    }

    /// Iterates the oriented out-list of `rank` as
    /// `(destination_rank, original_edge_id)` pairs, ascending by rank.
    pub fn out_edges(&self, rank: usize) -> impl Iterator<Item = (u32, EdgeId)> + '_ {
        let (s, e) = (self.offsets[rank] as usize, self.offsets[rank + 1] as usize);
        self.nbr[s..e]
            .iter()
            .copied()
            .zip(self.eid[s..e].iter().copied())
    }

    /// Calls `f(e_uv, e_uw, e_vw)` for every triangle, exactly once per
    /// triangle, over the rank range `lo..hi` of lowest-ranked corners.
    #[inline]
    fn for_each_triangle_in(
        &self,
        lo: usize,
        hi: usize,
        mut f: impl FnMut(EdgeId, EdgeId, EdgeId),
    ) {
        for u in lo..hi {
            let (us, ue) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            let u_nbr = &self.nbr[us..ue];
            let u_eid = &self.eid[us..ue];
            for (i, (&v, &e_uv)) in u_nbr.iter().zip(u_eid).enumerate() {
                let v = v as usize;
                let (vs, ve) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
                let v_nbr = &self.nbr[vs..ve];
                let v_eid = &self.eid[vs..ve];
                // Common out-neighbor w has rank > v, so only the tail of
                // out(u) past position i can match; out(v) is all > v.
                let (mut p, mut q) = (i + 1, 0usize);
                while p < u_nbr.len() && q < v_nbr.len() {
                    match u_nbr[p].cmp(&v_nbr[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            f(e_uv, u_eid[p], v_eid[q]);
                            p += 1;
                            q += 1;
                        }
                    }
                }
            }
        }
    }

    fn accumulate_supports(&self, lo: usize, hi: usize, sup: &mut [u32]) {
        self.for_each_triangle_in(lo, hi, |e_uv, e_uw, e_vw| {
            sup[e_uv.index()] += 1;
            sup[e_uw.index()] += 1;
            sup[e_vw.index()] += 1;
        });
    }

    /// Per-edge triangle counts indexed by raw edge id (dead slots read 0).
    /// Identical to [`crate::triangles::edge_supports`] on the same graph.
    pub fn edge_supports(&self) -> Vec<u32> {
        let mut sup = vec![0u32; self.edge_bound];
        self.accumulate_supports(0, self.num_vertices(), &mut sup);
        sup
    }

    /// Calls `f(e_uv, e_uw, e_vw)` for every triangle in the snapshot,
    /// exactly once per triangle (the oriented enumeration behind
    /// [`Self::edge_supports`]). This is how the level-synchronous peel
    /// materializes per-edge triangle lists without re-intersecting
    /// adjacency lists during the peel itself.
    #[inline]
    pub fn for_each_triangle(&self, f: impl FnMut(EdgeId, EdgeId, EdgeId)) {
        self.for_each_triangle_in(0, self.num_vertices(), f);
    }

    /// [`Self::for_each_triangle`] restricted to triangles whose
    /// lowest-ranked corner lies in `lo..hi`. Rank-ranged enumeration is
    /// what lets callers stop early — e.g. the peel's triangle
    /// materialization bails out per rank once its memory cap is hit
    /// instead of collecting a clique's cubic triangle count.
    #[inline]
    pub fn for_each_triangle_range(
        &self,
        lo: usize,
        hi: usize,
        f: impl FnMut(EdgeId, EdgeId, EdgeId),
    ) {
        self.for_each_triangle_in(lo, hi.min(self.num_vertices()), f);
    }

    /// Total triangle count (each triangle counted once).
    pub fn triangle_count(&self) -> u64 {
        let mut count = 0u64;
        self.for_each_triangle_in(0, self.num_vertices(), |_, _, _| count += 1);
        count
    }

    /// Splits the rank range into `chunks` contiguous ranges of roughly
    /// equal estimated work (per-chunk prefix-sum targets). Empty ranges
    /// are dropped.
    pub fn balanced_chunks(&self, chunks: usize) -> Vec<(usize, usize)> {
        let n = self.num_vertices();
        let chunks = chunks.max(1);
        let total = self.total_work();
        if n == 0 || total == 0 {
            return if n == 0 { Vec::new() } else { vec![(0, n)] };
        }
        let mut out = Vec::with_capacity(chunks);
        let mut lo = 0usize;
        for c in 1..=chunks {
            let target = total * c as u64 / chunks as u64;
            // First rank whose prefix work reaches the target.
            let hi = if c == chunks {
                n
            } else {
                self.work.partition_point(|&w| w < target).min(n)
            };
            if hi > lo {
                out.push((lo, hi));
                lo = hi;
            }
        }
        out
    }

    /// Parallel [`Self::edge_supports`] on the shared [`WorkerPool`]:
    /// wedge-balanced chunks, per-chunk thread-local accumulators merged at
    /// the end. Exact same vector as the sequential kernels (support counts
    /// are integers; summation order cannot change them).
    ///
    /// Two guards keep small inputs off the pool (the BENCH_decompose v1
    /// regression where 2 requested threads ran *slower* than the
    /// sequential kernel): the worker count is capped at the pool's real
    /// concurrency ([`WorkerPool::concurrency_cap`] — extra chunks beyond
    /// that only queue), and snapshots whose total estimated intersection
    /// work is below [`PARALLEL_CSR_WORK_MIN`] fall back to the sequential
    /// kernel outright, because a job round-trip plus the per-chunk
    /// accumulator merge costs more than the enumeration itself.
    pub fn edge_supports_parallel(self: &Arc<Self>, threads: usize) -> Vec<u32> {
        let workers = WorkerPool::global().concurrency_cap(threads);
        if workers <= 1 || self.num_vertices() == 0 || self.total_work() < PARALLEL_CSR_WORK_MIN {
            return self.edge_supports();
        }
        let chunks = self.balanced_chunks(workers);
        if chunks.len() <= 1 {
            return self.edge_supports();
        }
        let jobs: Vec<_> = chunks
            .into_iter()
            .map(|(lo, hi)| {
                let snap = Arc::clone(self);
                move || {
                    let mut local = vec![0u32; snap.edge_bound];
                    snap.accumulate_supports(lo, hi, &mut local);
                    local
                }
            })
            .collect();
        let locals = WorkerPool::global().run(jobs);
        self.merge_supports(locals, workers)
    }

    /// Sums per-chunk accumulators into the final support vector. The
    /// merge is itself fanned out across disjoint edge-id ranges when the
    /// vector is long enough to amortize a second pool round — the serial
    /// merge was `O(workers * edge_bound)` on the caller thread, a real
    /// slice of the small-thread overhead this path used to carry. Chunk
    /// count cannot change the result: every slot is the sum of the same
    /// integers in the same per-chunk order.
    fn merge_supports(self: &Arc<Self>, locals: Vec<Vec<u32>>, workers: usize) -> Vec<u32> {
        const PARALLEL_MERGE_MIN: usize = 1 << 18;
        if locals.len() == 1 {
            let mut locals = locals;
            // analyze: allow(panic-surface): len checked == 1 above
            return locals.pop().expect("one accumulator");
        }
        if workers <= 1 || self.edge_bound * locals.len() < PARALLEL_MERGE_MIN {
            let mut sup = vec![0u32; self.edge_bound];
            for local in locals {
                for (acc, x) in sup.iter_mut().zip(local) {
                    *acc += x;
                }
            }
            return sup;
        }
        let locals = Arc::new(locals);
        let step = self.edge_bound.div_ceil(workers);
        let jobs: Vec<_> = (0..workers)
            .map(|w| {
                let locals = Arc::clone(&locals);
                let lo = (w * step).min(self.edge_bound);
                let hi = ((w + 1) * step).min(self.edge_bound);
                move || {
                    let mut seg = vec![0u32; hi - lo];
                    for local in locals.iter() {
                        for (acc, x) in seg.iter_mut().zip(&local[lo..hi]) {
                            *acc += x;
                        }
                    }
                    seg
                }
            })
            .collect();
        WorkerPool::global().run(jobs).concat()
    }

    /// Parallel [`Self::triangle_count`] on the shared [`WorkerPool`].
    /// Same worker cap and work floor as [`Self::edge_supports_parallel`].
    pub fn triangle_count_parallel(self: &Arc<Self>, threads: usize) -> u64 {
        let workers = WorkerPool::global().concurrency_cap(threads);
        if workers <= 1 || self.num_vertices() == 0 || self.total_work() < PARALLEL_CSR_WORK_MIN {
            return self.triangle_count();
        }
        let chunks = self.balanced_chunks(workers);
        if chunks.len() <= 1 {
            return self.triangle_count();
        }
        let jobs: Vec<_> = chunks
            .into_iter()
            .map(|(lo, hi)| {
                let snap = Arc::clone(self);
                move || {
                    let mut count = 0u64;
                    snap.for_each_triangle_in(lo, hi, |_, _, _| count += 1);
                    count
                }
            })
            .collect();
        WorkerPool::global().run(jobs).into_iter().sum()
    }

    /// Consistency check for tests: oriented lists sorted, each captured
    /// edge id maps back to its endpoints, edge count matches.
    pub fn check_invariants(&self, g: &Graph) -> Result<(), String> {
        if self.nbr.len() != self.num_edges || self.eid.len() != self.num_edges {
            return Err("oriented arrays disagree with edge count".into());
        }
        for r in 0..self.num_vertices() {
            let (s, e) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
            let list = &self.nbr[s..e];
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("out-list of rank {r} not strictly ascending"));
            }
            for (i, &dst) in list.iter().enumerate() {
                if dst as usize <= r {
                    return Err(format!("edge at rank {r} not oriented upward"));
                }
                let (a, b) = (self.vertex_of_rank[r], self.vertex_of_rank[dst as usize]);
                match g.endpoints_checked(self.eid[s + i]) {
                    Some((x, y)) if (x == a && y == b) || (x == b && y == a) => {}
                    _ => {
                        return Err(format!(
                            "edge id {:?} does not connect ranks {r} and {dst}",
                            self.eid[s + i]
                        ))
                    }
                }
            }
        }
        Ok(())
    }
}

/// Freezes `g` and computes per-edge supports with the sequential oriented
/// kernel. Drop-in replacement for [`crate::triangles::edge_supports`].
pub fn edge_supports_csr(g: &Graph) -> Vec<u32> {
    CsrGraph::freeze(g).edge_supports()
}

/// Freezes `g` and computes per-edge supports with `threads` workers
/// (`0` = available parallelism) on the shared pool, chunked by estimated
/// intersection work. Bit-identical to the sequential paths.
pub fn edge_supports_csr_parallel(g: &Graph, threads: usize) -> Vec<u32> {
    Arc::new(CsrGraph::freeze(g)).edge_supports_parallel(threads)
}

/// Freezes `g` and counts triangles with the oriented kernel.
pub fn triangle_count_csr(g: &Graph) -> u64 {
    CsrGraph::freeze(g).triangle_count()
}

/// Freezes `g` and counts triangles with `threads` workers (`0` = auto).
pub fn triangle_count_csr_parallel(g: &Graph, threads: usize) -> u64 {
    Arc::new(CsrGraph::freeze(g)).triangle_count_parallel(threads)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::generators;
    use crate::triangles;

    #[test]
    fn empty_and_isolated_graphs() {
        let snap = CsrGraph::freeze(&Graph::new());
        assert_eq!(snap.num_vertices(), 0);
        assert_eq!(snap.edge_supports(), Vec::<u32>::new());
        assert_eq!(snap.triangle_count(), 0);

        let mut g = Graph::new();
        g.add_vertices(5);
        let snap = Arc::new(CsrGraph::freeze(&g));
        assert_eq!(snap.triangle_count(), 0);
        assert_eq!(snap.edge_supports_parallel(4), vec![0u32; 0]);
    }

    #[test]
    fn matches_hash_kernel_on_generators() {
        let graphs = [
            generators::complete(8),
            generators::holme_kim(300, 3, 0.6, 11),
            generators::planted_partition(3, 15, 0.6, 0.05, 5),
            generators::gnp(80, 0.15, 2),
            generators::star(20),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let snap = Arc::new(CsrGraph::freeze(g));
            snap.check_invariants(g).unwrap();
            let hash = triangles::edge_supports(g);
            assert_eq!(snap.edge_supports(), hash, "graph {i} seq");
            assert_eq!(snap.edge_supports_parallel(3), hash, "graph {i} par");
            assert_eq!(
                snap.triangle_count(),
                triangles::triangle_count(g),
                "graph {i}"
            );
            assert_eq!(
                snap.triangle_count_parallel(3),
                triangles::triangle_count(g),
                "graph {i} par count"
            );
        }
    }

    #[test]
    fn dead_slots_read_zero_and_roundtrip() {
        let mut g = generators::complete(7);
        for (u, v) in [(0u32, 1u32), (2, 3), (4, 5)] {
            g.remove_edge_between(VertexId(u), VertexId(v)).unwrap();
        }
        // Re-add one edge so a freed slot is live again.
        g.add_edge(VertexId(0), VertexId(1)).unwrap();
        let snap = CsrGraph::freeze(&g);
        snap.check_invariants(&g).unwrap();
        assert_eq!(snap.edge_bound(), g.edge_bound());
        assert_eq!(snap.edge_supports(), triangles::edge_supports(&g));
        assert_eq!(snap.triangle_count(), triangles::triangle_count(&g));

        // Past the work floor the pooled kernel must keep holes at zero too.
        let mut g = generators::holme_kim(8000, 4, 0.6, 1);
        let victim = g.edge_ids().next().unwrap();
        g.remove_edge(victim).unwrap();
        let snap = Arc::new(CsrGraph::freeze(&g));
        assert!(snap.total_work() >= PARALLEL_CSR_WORK_MIN);
        let par = snap.edge_supports_parallel(4);
        assert_eq!(par[victim.index()], 0);
        assert_eq!(par, triangles::edge_supports(&g));
    }

    #[test]
    fn orientation_is_degree_then_id() {
        // Star: hub 0 has max degree, leaves degree 1 → hub is the last
        // rank and every edge is oriented leaf → hub.
        let g = generators::star(6);
        let snap = CsrGraph::freeze(&g);
        assert_eq!(snap.vertex_of_rank(6), VertexId(0));
        let hub_out: Vec<_> = snap.out_edges(6).collect();
        assert!(hub_out.is_empty(), "hub must have an empty out-list");
        for r in 0..6 {
            assert_eq!(snap.out_edges(r).count(), 1);
        }
    }

    #[test]
    fn balanced_chunks_cover_range_without_overlap() {
        let g = generators::holme_kim(500, 4, 0.7, 3);
        let snap = CsrGraph::freeze(&g);
        for chunks in [1, 2, 3, 7, 16] {
            let parts = snap.balanced_chunks(chunks);
            assert!(!parts.is_empty());
            assert_eq!(parts[0].0, 0);
            assert_eq!(parts.last().unwrap().1, snap.num_vertices());
            for w in parts.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must tile");
            }
            // Work balance: no chunk exceeds ~2x the ideal share (loose
            // bound; single heavy vertices can't be split).
            if chunks > 1 && parts.len() == chunks {
                let ideal = snap.total_work() / chunks as u64;
                for &(lo, hi) in &parts {
                    let w: u64 = snap.work[hi] - snap.work[lo];
                    assert!(
                        w <= ideal * 2 + snap.work[snap.num_vertices()] / parts.len() as u64 + 1
                    );
                }
            }
        }
    }

    #[test]
    fn oversubscribed_thread_counts_are_exact() {
        let g = generators::planted_partition(4, 10, 0.7, 0.05, 9);
        let hash = triangles::edge_supports(&g);
        for threads in [2, 8, 64] {
            assert_eq!(edge_supports_csr_parallel(&g, threads), hash);
        }
        assert_eq!(edge_supports_csr(&g), hash);
        assert_eq!(triangle_count_csr(&g), triangles::triangle_count(&g));
        assert_eq!(
            triangle_count_csr_parallel(&g, 8),
            triangles::triangle_count(&g)
        );
    }
}
