//! Level-synchronous peel: Algorithm 1 by **frontier rounds** instead of
//! one-edge-at-a-time bucket pops. This is the only in-memory
//! decomposition; it runs at every thread count, behind
//! [`crate::decompose::triangle_kcore_decomposition_timed`].
//!
//! The paper's bucket peel (kept as the `tkc-verify` bucket-peel oracle)
//! is inherently sequential — every pop depends on every earlier
//! decrement through the bucket queue. This module replaces that
//! dependency chain with the PKT-style schedule used by parallel truss
//! decomposition:
//!
//! 1. **Harvest** the whole frontier: every unpeeled edge whose support
//!    equals the current minimum (`level`).
//! 2. **Round**: visit the triangles of every frontier edge in parallel
//!    and decrement the supports of their unpeeled third edges with CAS
//!    loops that clamp at `level`. An edge whose support lands exactly
//!    on `level` joins the *next* frontier (the within-level cascade),
//!    so sub-rounds repeat until the level drains.
//! 3. Assign `κ = level` to the whole batch and advance.
//!
//! Every edge peeled this way gets the same κ as the sequential peel:
//! batching the minimum-support edges is a valid linearization of
//! Algorithm 1 because supports of co-frontier edges are never touched
//! during a round (they already sit at `level`, and decrements clamp
//! there), so any order within the batch yields κ = `level` for all of
//! them — exactly what the sequential peel assigns.
//!
//! ## Triangle lookup
//!
//! What makes the rounds *fast* is not the threading but the lookup
//! structure behind [`TriangleSource`]:
//!
//! * [`TriangleStore`] — the paper's §IV-A stored-triangle tradeoff,
//!   adapted to the peel: per-edge flat lists of `(other, other)` edge
//!   pairs, materialized in one oriented enumeration pass. List lengths
//!   are exactly the initial supports, so the offsets are a prefix sum
//!   of the support vector that same pass yields. A round then
//!   walks flat pairs — total peel work is exactly `3·|Tri|` visits,
//!   with no adjacency re-intersection at all.
//! * [`tkc_graph::peel_csr::PeelCsr`] — the merge fallback when storing
//!   triangles would blow memory (`Σ sup > 8·m`, e.g. near-cliques):
//!   full-adjacency 4-byte rank merges with lazy compaction.
//!
//! Both sources honor one shortcut worth more than either structure: if
//! a harvest leaves **no unpeeled edge outside the frontier**, no
//! decrement can land anywhere, so the round skips triangle visits
//! entirely. A clique — the paper's motivating extreme, every edge at
//! one level — peels in a single scan.
//!
//! ## Determinism
//!
//! Bit-identical κ for every chunk count, thread count, and lookup
//! structure comes from three rules:
//!
//! * the `mark` array (unpeeled / frontier / peeled) is written only by
//!   the coordinating thread *between* rounds — workers treat it as
//!   read-only, and the pool's channel handoff gives the happens-before;
//! * for each dying triangle, only its **minimum-id frontier edge**
//!   performs the decrements, so the surviving third edge is
//!   decremented exactly once per triangle regardless of chunking;
//! * exactly one CAS observes the transition onto `level` (transition
//!   values are unique), so each cascading edge enters exactly one
//!   worker's local next-frontier buffer.
//!
//! The order of edges inside a frontier follows chunking and CAS timing,
//! but nothing reads it: every frontier edge gets κ = `level`, and the
//! ownership rule compares edge ids, not frontier positions.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tkc_graph::csr::CsrGraph;
use tkc_graph::peel_csr::PeelCsr;
use tkc_graph::pool::resolve_threads;
use tkc_graph::{EdgeId, Graph, WorkerPool};

use crate::decompose::Decomposition;

/// Mark value: edge not yet peeled (workers may decrement its support).
const UNPEELED: u8 = 0;
/// Mark value: edge is in the frontier of the round currently running
/// (its κ is decided; its support must not move).
const FRONTIER: u8 = 1;
/// Mark value: edge peeled in an earlier round (its triangles are gone).
const PEELED: u8 = 2;

/// Minimum estimated frontier work before a round fans out to the worker
/// pool; smaller rounds — cascade tails, sparse levels — run inline on
/// the coordinating thread, skipping the channel round-trip that would
/// dominate them.
pub const PARALLEL_PEEL_ROUND_FLOOR: u64 = 1 << 13;

/// Memory gate for the stored-triangle lookup: store when the flat pair
/// lists hold at most this many entries per live edge (`Σ sup ≤ 8·m`,
/// i.e. ≤ 64 bytes of pairs per edge). Sparse real-world graphs sit far
/// below it; near-cliques (|Tri| ~ m^1.5) fall back to adjacency merges.
pub const TRIANGLE_STORE_MAX_ENTRIES_PER_EDGE: u64 = 8;

/// Which triangle lookup structure the peel uses for its rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriangleLookup {
    /// Decide by the memory gate ([`TRIANGLE_STORE_MAX_ENTRIES_PER_EDGE`]).
    Auto,
    /// Force the stored-triangle flat lists (§IV-A tradeoff).
    Stored,
    /// Force the full-adjacency merge fallback ([`PeelCsr`]).
    Merge,
}

/// The production pipeline behind
/// [`crate::decompose::triangle_kcore_decomposition_timed`], given the
/// frozen snapshot: chunks capped at the pool size, small rounds inline,
/// lookup chosen by the memory gate. Returns the decomposition plus the
/// (supports, peel) wall-clock split.
pub(crate) fn level_sync_from_csr(
    csr: &Arc<CsrGraph>,
    threads: usize,
) -> (Decomposition, Duration, Duration) {
    let chunks = WorkerPool::global().concurrency_cap(threads);
    level_sync(
        csr,
        threads,
        chunks,
        PARALLEL_PEEL_ROUND_FLOOR,
        TriangleLookup::Auto,
    )
}

/// Test hook: the level-sync peel with `chunks` taken verbatim (`0` =
/// available parallelism; not capped at the pool size), every
/// multi-chunk round fanned out to the pool, and the triangle lookup
/// forced, so `tkc-verify` and the property tests reach the multi-chunk
/// merge and both lookups on any machine and graph. κ and max κ are
/// bit-identical to [`Decomposition::compute_with`] for every argument.
#[doc(hidden)]
pub fn level_sync_forced(g: &Graph, chunks: usize, lookup: TriangleLookup) -> Decomposition {
    let csr = Arc::new(CsrGraph::freeze(g));
    let chunks = resolve_threads(chunks);
    level_sync(&csr, chunks, chunks, 0, lookup).0
}

/// The fused pipeline: **one** oriented enumeration pass either collects
/// every triangle (stored path — supports then fall out of the collected
/// list for free, instead of a second enumeration) or bails at the
/// memory cap, in which case supports are counted the classic way on
/// `threads` workers and the rounds run over adjacency merges. `chunks`
/// is the fan-out per round (1 = fully inline); `round_floor` is the
/// work threshold below which a round runs inline regardless (0 forces
/// the pooled path). Output is bit-identical for every `(threads,
/// chunks, round_floor, lookup)`. The two durations are `supports` (the
/// enumeration that determines every edge's support) and `peel`
/// (everything after: store scatter or [`PeelCsr`] build, plus the
/// rounds).
fn level_sync(
    csr: &Arc<CsrGraph>,
    threads: usize,
    chunks: usize,
    round_floor: u64,
    lookup: TriangleLookup,
) -> (Decomposition, Duration, Duration) {
    let t_sup = Instant::now();
    let tris = match lookup {
        TriangleLookup::Auto => {
            let cap = TRIANGLE_STORE_MAX_ENTRIES_PER_EDGE * csr.num_edges() as u64 / 3;
            collect_triangles(csr, cap as usize)
        }
        TriangleLookup::Stored => collect_triangles(csr, usize::MAX),
        TriangleLookup::Merge => None,
    };
    if let Some(tris) = tris {
        let supports_elapsed = t_sup.elapsed();
        let t_peel = Instant::now();
        let (src, sup) = TriangleStore::from_triples(csr.edge_bound(), &tris);
        drop(tris);
        let remaining = live_edges(csr);
        let d = peel_rounds(src, remaining, sup, chunks, round_floor);
        (d, supports_elapsed, t_peel.elapsed())
    } else {
        let sup = csr.edge_supports_parallel(threads);
        let supports_elapsed = t_sup.elapsed();
        let t_peel = Instant::now();
        let src = PeelCsr::build(csr);
        let remaining = src.live_edges().to_vec();
        let d = peel_rounds(src, remaining, sup, chunks, round_floor);
        (d, supports_elapsed, t_peel.elapsed())
    }
}

/// Collects every triangle of the snapshot as an edge-id triple, or
/// `None` once more than `cap` accumulate. The bail-out is checked per
/// lowest-ranked corner, so the overshoot is bounded by one rank's
/// triangles and a near-clique aborts long before materializing its
/// cubic triangle count.
fn collect_triangles(csr: &CsrGraph, cap: usize) -> Option<Vec<(EdgeId, EdgeId, EdgeId)>> {
    let mut tris = Vec::new();
    for r in 0..csr.num_vertices() {
        csr.for_each_triangle_range(r, r + 1, |a, b, c| tris.push((a, b, c)));
        if tris.len() > cap {
            return None;
        }
    }
    Some(tris)
}

/// Live edge ids of the snapshot, ascending.
fn live_edges(csr: &CsrGraph) -> Vec<EdgeId> {
    let mut alive = vec![false; csr.edge_bound()];
    for r in 0..csr.num_vertices() {
        for (_, e) in csr.out_edges(r) {
            alive[e.index()] = true;
        }
    }
    (0..alive.len())
        .filter(|&i| alive[i])
        .map(EdgeId::from)
        .collect()
}

/// A structure the frontier rounds can ask for the triangles of an edge.
/// Implementations must answer consistently while shared read-only
/// during a round; the `&mut` hooks run between rounds, when the
/// coordinator holds the only reference.
trait TriangleSource: Send + Sync + 'static {
    /// Estimated cost of visiting `e`'s triangles (chunk balancing).
    fn edge_work(&self, e: EdgeId) -> u64;
    /// Calls `f(x, y)` for (at least) every triangle `{e, x, y}` whose
    /// three edges are all unpeeled; stale entries for already-peeled
    /// triangles are allowed — the rounds filter on `mark`.
    fn for_each_triangle_on_edge<F: FnMut(EdgeId, EdgeId)>(&self, e: EdgeId, f: F);
    /// Bookkeeping after a round peeled `frontier`.
    fn note_peeled(&mut self, frontier: &[EdgeId]);
    /// Bookkeeping after a level fully drained.
    fn end_level(&mut self, mark: &[AtomicU8]);
}

impl TriangleSource for PeelCsr {
    #[inline]
    fn edge_work(&self, e: EdgeId) -> u64 {
        PeelCsr::edge_work(self, e)
    }

    #[inline]
    fn for_each_triangle_on_edge<F: FnMut(EdgeId, EdgeId)>(&self, e: EdgeId, f: F) {
        PeelCsr::for_each_triangle_on_edge(self, e, f);
    }

    fn note_peeled(&mut self, frontier: &[EdgeId]) {
        for &e in frontier {
            self.retire(e);
        }
    }

    fn end_level(&mut self, mark: &[AtomicU8]) {
        self.compact(|e| mark[e.index()].load(Ordering::Relaxed) == PEELED);
    }
}

/// Stored-triangle lookup: per-edge flat lists of the other two edges of
/// each triangle. `offset` is a prefix sum of the initial supports (a
/// triangle list is exactly as long as the edge's support), `pairs` is
/// filled by one oriented enumeration pass over the snapshot.
struct TriangleStore {
    offset: Vec<u32>,
    pairs: Vec<(EdgeId, EdgeId)>,
}

impl TriangleStore {
    /// Builds the store *and* the support vector from one collected
    /// triangle list: a triangle list is exactly as long as the edge's
    /// support, so the supports double as the offset histogram.
    fn from_triples(bound: usize, tris: &[(EdgeId, EdgeId, EdgeId)]) -> (TriangleStore, Vec<u32>) {
        let mut sup = vec![0u32; bound];
        for &(a, b, c) in tris {
            sup[a.index()] += 1;
            sup[b.index()] += 1;
            sup[c.index()] += 1;
        }
        let mut offset = vec![0u32; bound + 1];
        for i in 0..bound {
            offset[i + 1] = offset[i] + sup[i];
        }
        let total = offset[bound] as usize;
        let mut pairs = vec![(EdgeId(0), EdgeId(0)); total];
        let mut cursor: Vec<u32> = offset[..bound].to_vec();
        for &(a, b, c) in tris {
            for (e, x, y) in [(a, b, c), (b, a, c), (c, a, b)] {
                let slot = cursor[e.index()];
                pairs[slot as usize] = (x, y);
                cursor[e.index()] = slot + 1;
            }
        }
        (TriangleStore { offset, pairs }, sup)
    }
}

impl TriangleSource for TriangleStore {
    #[inline]
    fn edge_work(&self, e: EdgeId) -> u64 {
        let i = e.index();
        1 + u64::from(self.offset[i + 1] - self.offset[i])
    }

    #[inline]
    fn for_each_triangle_on_edge<F: FnMut(EdgeId, EdgeId)>(&self, e: EdgeId, mut f: F) {
        let i = e.index();
        let (s, t) = (self.offset[i] as usize, self.offset[i + 1] as usize);
        for &(x, y) in &self.pairs[s..t] {
            f(x, y);
        }
    }

    fn note_peeled(&mut self, _frontier: &[EdgeId]) {}

    fn end_level(&mut self, _mark: &[AtomicU8]) {}
}

/// The level-synchronous driver, generic over the triangle lookup.
fn peel_rounds<S: TriangleSource>(
    src: S,
    mut remaining: Vec<EdgeId>,
    sup: Vec<u32>,
    chunks: usize,
    round_floor: u64,
) -> Decomposition {
    let bound = sup.len();
    let m = remaining.len();
    let mut kappa = vec![0u32; bound];
    if m == 0 {
        return Decomposition::from_parts(kappa, 0, 0);
    }
    let sup: Arc<Vec<AtomicU32>> = Arc::new(sup.into_iter().map(AtomicU32::new).collect());
    let mark: Arc<Vec<AtomicU8>> = Arc::new((0..bound).map(|_| AtomicU8::new(UNPEELED)).collect());
    let mut src = Arc::new(src);
    let mut peeled = 0usize;
    let mut max_kappa = 0u32;

    while peeled < m {
        let (mut frontier, level) = harvest(&mut remaining, &sup, &mark);
        // analyze: invariant(check_parallel_peel)
        debug_assert!(
            !frontier.is_empty() && level != u32::MAX,
            "harvest found no frontier with {} edges unpeeled",
            m - peeled
        );
        // analyze: invariant(check_parallel_peel)
        debug_assert!(
            peeled == 0 || level > max_kappa,
            "level monotonicity violation: harvested level {level} after \
             finishing level {max_kappa}"
        );
        max_kappa = level;
        while !frontier.is_empty() {
            for &e in &frontier {
                mark[e.index()].store(FRONTIER, Ordering::Relaxed);
            }
            // If nothing unpeeled remains outside the frontier, no
            // decrement can land anywhere — skip the triangle visits. A
            // clique (every edge at one level) peels in a single scan.
            let next = if remaining.is_empty() {
                Vec::new()
            } else {
                run_frontier_round(&src, &sup, &mark, &frontier, level, chunks, round_floor)
            };
            for &e in &frontier {
                kappa[e.index()] = level;
                mark[e.index()].store(PEELED, Ordering::Relaxed);
            }
            // Between rounds the coordinator holds the only strong
            // reference again (worker closures were dropped when the
            // round returned), so the source is mutable for bookkeeping.
            if let Some(source) = Arc::get_mut(&mut src) {
                source.note_peeled(&frontier);
            }
            peeled += frontier.len();
            frontier = next;
        }
        if let Some(source) = Arc::get_mut(&mut src) {
            source.end_level(&mark);
        }
    }
    Decomposition::from_parts(kappa, max_kappa, m)
}

/// One pass over the unpeeled edges: drop peeled entries, find the new
/// minimum support, and split its edges off as the frontier. The minimum
/// must be recomputed by scanning — a minimum captured before the level's
/// rounds ran would be stale, because cascades decrement supports *down
/// to* (never below) the level that just finished. Both the frontier and
/// the kept remainder preserve ascending edge-id order.
fn harvest(
    remaining: &mut Vec<EdgeId>,
    sup: &[AtomicU32],
    mark: &[AtomicU8],
) -> (Vec<EdgeId>, u32) {
    let mut level = u32::MAX;
    let mut write = 0usize;
    for read in 0..remaining.len() {
        let e = remaining[read];
        if mark[e.index()].load(Ordering::Relaxed) == PEELED {
            continue;
        }
        remaining[write] = e;
        write += 1;
        level = level.min(sup[e.index()].load(Ordering::Relaxed));
    }
    remaining.truncate(write);
    let mut frontier = Vec::new();
    let mut keep = 0usize;
    for read in 0..remaining.len() {
        let e = remaining[read];
        if sup[e.index()].load(Ordering::Relaxed) == level {
            frontier.push(e);
        } else {
            remaining[keep] = e;
            keep += 1;
        }
    }
    remaining.truncate(keep);
    (frontier, level)
}

/// Runs one frontier round and returns the next frontier (edges whose
/// support cascaded down onto `level`).
fn run_frontier_round<S: TriangleSource>(
    src: &Arc<S>,
    sup: &Arc<Vec<AtomicU32>>,
    mark: &Arc<Vec<AtomicU8>>,
    frontier: &[EdgeId],
    level: u32,
    chunks: usize,
    round_floor: u64,
) -> Vec<EdgeId> {
    // κ = 0 batch: supports never undercount remaining triangles (each
    // triangle death decrements by at most one), so support 0 means zero
    // unpeeled triangles — skip the visits entirely. On sparse graphs
    // this removes the bulk of all peel work.
    if level == 0 {
        return Vec::new();
    }
    if chunks <= 1 || frontier.len() < chunks {
        process_slice(src.as_ref(), sup, mark, frontier, level)
    } else {
        // Work-prefix sums over the frontier, so chunks are balanced by
        // estimated visit cost rather than edge count.
        let mut total = 0u64;
        let prefix: Vec<u64> = frontier
            .iter()
            .map(|&e| {
                total += src.edge_work(e);
                total
            })
            .collect();
        if total < round_floor {
            process_slice(src.as_ref(), sup, mark, frontier, level)
        } else {
            let shared: Arc<[EdgeId]> = Arc::from(frontier);
            let mut bounds = Vec::with_capacity(chunks + 1);
            bounds.push(0usize);
            for j in 1..chunks {
                let target = total / chunks as u64 * j as u64;
                let split = prefix.partition_point(|&w| w < target);
                bounds.push(split.max(*bounds.last().unwrap_or(&0)));
            }
            bounds.push(frontier.len());
            let jobs: Vec<_> = bounds
                .windows(2)
                .map(|w| (w[0], w[1]))
                .map(|(lo, hi)| {
                    let src = Arc::clone(src);
                    let sup = Arc::clone(sup);
                    let mark = Arc::clone(mark);
                    let shared = Arc::clone(&shared);
                    move || process_slice(src.as_ref(), &sup, &mark, &shared[lo..hi], level)
                })
                .collect();
            WorkerPool::global()
                .run_round(jobs, total, round_floor)
                .concat()
        }
    }
}

/// Processes one slice of the frontier: for every still-alive triangle on
/// each edge, decrement the unpeeled third edge's support (CAS, clamped
/// at `level`) under the minimum-id ownership rule. Returns this worker's
/// share of the next frontier (edges observed transitioning onto
/// `level`), in discovery order.
fn process_slice<S: TriangleSource>(
    src: &S,
    sup: &[AtomicU32],
    mark: &[AtomicU8],
    frontier: &[EdgeId],
    level: u32,
) -> Vec<EdgeId> {
    let mut next = Vec::new();
    for &e in frontier {
        src.for_each_triangle_on_edge(e, |x, y| {
            let mx = mark[x.index()].load(Ordering::Relaxed);
            let my = mark[y.index()].load(Ordering::Relaxed);
            if mx == PEELED || my == PEELED {
                return; // triangle already died in an earlier round
            }
            // Ownership: the minimum-id frontier edge of the triangle
            // performs the decrements; co-frontier edges with larger ids
            // stand down, so the third edge loses exactly one support per
            // dying triangle no matter how the frontier was chunked.
            if (mx == FRONTIER && x < e) || (my == FRONTIER && y < e) {
                return;
            }
            for (z, mz) in [(x, mx), (y, my)] {
                if mz != UNPEELED {
                    continue; // co-frontier edge: κ = level already decided
                }
                let zi = z.index();
                let mut cur = sup[zi].load(Ordering::Relaxed);
                while cur > level {
                    match sup[zi].compare_exchange_weak(
                        cur,
                        cur - 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            if cur - 1 == level {
                                // This CAS is the unique observer of the
                                // transition onto `level`: z joins the
                                // next frontier exactly once.
                                next.push(z);
                            }
                            break;
                        }
                        Err(seen) => cur = seen,
                    }
                }
            }
        });
    }
    next
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::decompose::triangle_kcore_decomposition_timed;
    use crate::reference::naive_kappa;
    use tkc_graph::{generators, VertexId};

    /// Every (chunks, lookup) configuration reproduces the definitional
    /// oracle's κ and the 1-chunk run's max κ.
    fn assert_matches_sequential(g: &Graph, label: &str) {
        let want = naive_kappa(g);
        let base = level_sync_forced(g, 1, TriangleLookup::Auto);
        assert_eq!(base.kappa_slice(), want.as_slice(), "{label}: κ mismatch");
        for threads in [1usize, 2, 4, 8] {
            for lookup in [
                TriangleLookup::Auto,
                TriangleLookup::Stored,
                TriangleLookup::Merge,
            ] {
                let par = level_sync_forced(g, threads, lookup);
                assert_eq!(
                    par, base,
                    "{label}: diverged at {threads} chunks via {lookup:?}"
                );
            }
        }
    }

    #[test]
    fn matches_sequential_on_structured_graphs() {
        assert_matches_sequential(&generators::complete(9), "K9");
        assert_matches_sequential(&generators::holme_kim(300, 3, 0.6, 5), "holme_kim");
        assert_matches_sequential(
            &generators::planted_partition(3, 10, 0.7, 0.05, 2),
            "planted",
        );
        assert_matches_sequential(&generators::gnp(80, 0.12, 9), "gnp");
        assert_matches_sequential(&generators::star(12), "star");
        assert_matches_sequential(&generators::path(6), "path");
        assert_matches_sequential(&Graph::new(), "empty");
    }

    #[test]
    fn matches_sequential_with_dead_slots() {
        let mut g = generators::planted_partition(2, 10, 0.8, 0.1, 7);
        let victims: Vec<_> = g.edge_ids().step_by(5).collect();
        for e in victims {
            g.remove_edge(e).unwrap();
        }
        assert_matches_sequential(&g, "dead-slots");
    }

    #[test]
    fn auto_gate_picks_merge_on_dense_and_stored_on_sparse() {
        // K60: Σ sup = 3·C(60,3) ≫ 8·m — Auto must not materialize.
        let dense = generators::complete(60);
        let sup_sum: u64 = 3 * (60 * 59 * 58 / 6);
        assert!(sup_sum > TRIANGLE_STORE_MAX_ENTRIES_PER_EDGE * dense.num_edges() as u64);
        // A sparse clustered graph sits comfortably under the gate.
        let sparse = generators::holme_kim(400, 3, 0.6, 1);
        let sup = tkc_graph::triangles::edge_supports(&sparse);
        let entries: u64 = sup.iter().map(|&s| u64::from(s)).sum();
        assert!(entries <= TRIANGLE_STORE_MAX_ENTRIES_PER_EDGE * sparse.num_edges() as u64);
        // Either way the result matches the reference.
        assert_matches_sequential(&dense, "K60");
    }

    #[test]
    fn production_routing_uses_level_sync_and_matches() {
        // Every thread count runs the same body, so the production entry
        // points and the forced hook agree on κ and max κ.
        let g = generators::holme_kim(800, 4, 0.7, 11);
        let want = naive_kappa(&g);
        let forced = level_sync_forced(&g, 4, TriangleLookup::Auto);
        for threads in [1, 4] {
            let via_compute = Decomposition::compute_with(&g, threads);
            assert_eq!(via_compute.kappa_slice(), want.as_slice());
            assert_eq!(via_compute, forced, "{threads} threads");
        }
    }

    #[test]
    fn timed_variant_matches_and_fills_phases() {
        let g = generators::holme_kim(400, 3, 0.6, 13);
        let (d, t) = triangle_kcore_decomposition_timed(&g, 4);
        assert_eq!(d.kappa_slice(), naive_kappa(&g).as_slice());
        assert!(t.peel > Duration::ZERO);
        assert!(t.supports > Duration::ZERO);
        assert_eq!(t.total(), t.freeze + t.supports + t.peel);
    }

    #[test]
    fn forced_pooled_rounds_match_inline_rounds() {
        // round_floor 0 forces every multi-chunk round through the pool;
        // a huge floor forces every round inline. Identical output is the
        // determinism contract.
        let g = generators::planted_partition(4, 8, 0.8, 0.1, 4);
        let csr = Arc::new(CsrGraph::freeze(&g));
        for lookup in [TriangleLookup::Stored, TriangleLookup::Merge] {
            let pooled = level_sync(&csr, 4, 4, 0, lookup).0;
            let inline = level_sync(&csr, 4, 4, u64::MAX, lookup).0;
            assert_eq!(pooled, inline, "{lookup:?}");
        }
    }

    #[test]
    fn two_cliques_sharing_an_edge() {
        // Classic cascade shape: peeling the small clique's level must
        // not disturb the large clique's κ.
        let mut g = generators::complete(7);
        let base = g.num_vertices() as u32;
        g.add_vertices(3);
        for &u in &[0u32, 1] {
            for v in 0..3u32 {
                g.add_edge(VertexId(u), VertexId(base + v)).unwrap();
            }
        }
        for i in 0..3u32 {
            for j in (i + 1)..3 {
                g.add_edge(VertexId(base + i), VertexId(base + j)).unwrap();
            }
        }
        assert_matches_sequential(&g, "shared-edge cliques");
    }
}
