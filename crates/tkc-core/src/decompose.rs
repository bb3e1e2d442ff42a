//! Algorithm 1 of the paper: compute every edge's maximum Triangle K-Core
//! number `κ(e)` by peeling edges in increasing support order.
//!
//! One body runs at every thread count
//! ([`triangle_kcore_decomposition_timed`]): freeze the graph into the
//! oriented CSR snapshot (`tkc_graph::csr`), count supports in one
//! enumeration pass that also collects the triangles, then peel level by
//! level in frontier rounds ([`crate::peel_parallel`]). The paper's
//! one-edge-at-a-time bucket queue lives on as the `tkc-verify`
//! bucket-peel oracle the tests compare against.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tkc_graph::csr::CsrGraph;
use tkc_graph::{EdgeId, Graph};

/// The result of a Triangle K-Core decomposition.
///
/// Paper correspondence: `κ(e)` is Definition 4's maximum Triangle K-Core
/// number of the edge; `co_clique_size(e) = κ(e) + 2` is the proxy the
/// visual-analytic layer plots (§V); `order` is the processing order used
/// by Rule 1 and the update algorithms of the appendix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    kappa: Vec<u32>,
    order: Vec<EdgeId>,
    max_kappa: u32,
}

impl Decomposition {
    /// Runs Algorithm 1 with `threads` workers (`0` = available
    /// parallelism). κ, order, and max κ are identical for every thread
    /// count. See [`triangle_kcore_decomposition_timed`].
    pub fn compute_with(g: &Graph, threads: usize) -> Decomposition {
        triangle_kcore_decomposition_timed(g, threads).0
    }

    /// Assembles a decomposition from parts the level-synchronous peel
    /// has built: κ per raw edge id, `order` a genuine peel order
    /// non-decreasing in κ, and the largest κ.
    pub(crate) fn from_parts(kappa: Vec<u32>, order: Vec<EdgeId>, max_kappa: u32) -> Decomposition {
        Decomposition {
            kappa,
            order,
            max_kappa,
        }
    }

    /// Wraps an externally maintained κ vector (the dynamic maintainer's,
    /// or one restored by [`crate::persist`]) as a decomposition view, so
    /// snapshot consumers — histograms, level-set extraction, the serving
    /// layer — can query it through the same interface.
    ///
    /// The processing order is synthesized by counting-sorting live edges
    /// on `(κ, edge id)`: not the order a peel would have produced, but
    /// non-decreasing in κ, which is all every order consumer relies on —
    /// Rule 1 triangle recovery ([`core_triangles_of_edge`]) included.
    pub fn from_kappa(g: &Graph, mut kappa: Vec<u32>) -> Decomposition {
        kappa.resize(g.edge_bound().max(kappa.len()), 0);
        let max_kappa = g.edge_ids().map(|e| kappa[e.index()]).max().unwrap_or(0);
        // Counting sort: bucket sizes, prefix offsets, then placement in
        // edge-id order so ties stay sorted by id.
        let mut counts = vec![0usize; max_kappa as usize + 2];
        for e in g.edge_ids() {
            counts[kappa[e.index()] as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut order = vec![EdgeId::from(0usize); g.num_edges()];
        for e in g.edge_ids() {
            let slot = &mut counts[kappa[e.index()] as usize];
            order[*slot] = e;
            *slot += 1;
        }
        Decomposition {
            kappa,
            order,
            max_kappa,
        }
    }

    /// κ of a live edge. Slots of edges that were dead at decomposition
    /// time read 0.
    #[inline]
    pub fn kappa(&self, e: EdgeId) -> u32 {
        self.kappa[e.index()]
    }

    /// The κ vector indexed by raw edge id.
    #[inline]
    pub fn kappa_slice(&self) -> &[u32] {
        &self.kappa
    }

    /// Largest κ in the graph.
    #[inline]
    pub fn max_kappa(&self) -> u32 {
        self.max_kappa
    }

    /// The paper's clique-size proxy for an edge: `κ(e) + 2` (an
    /// `n`-clique is a Triangle K-Core of number `n − 2`).
    #[inline]
    pub fn co_clique_size(&self, e: EdgeId) -> u32 {
        self.kappa(e) + 2
    }

    /// Edges in the order Algorithm 1 processed them (non-decreasing κ).
    /// This is the `Edges` list of the paper; index = `e.order`.
    #[inline]
    pub fn order(&self) -> &[EdgeId] {
        &self.order
    }

    /// Number of live edges with each κ value (`hist[k]` = count of edges
    /// with `κ == k`).
    pub fn histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_kappa as usize + 1];
        for &e in &self.order {
            hist[self.kappa(e) as usize] += 1;
        }
        hist
    }

    /// Consumes the decomposition, returning the κ vector (used to seed the
    /// dynamic maintainer without recomputing).
    pub fn into_kappa(self) -> Vec<u32> {
        self.kappa
    }

    /// The processing rank of each edge (`rank[e] = position in order`,
    /// `usize::MAX` for dead slots) — the paper's `e.order`.
    pub fn ranks(&self) -> Vec<usize> {
        let bound = self
            .order
            .iter()
            .map(|e| e.index() + 1)
            .max()
            .unwrap_or(0)
            .max(self.kappa.len());
        let mut rank = vec![usize::MAX; bound];
        for (i, &e) in self.order.iter().enumerate() {
            rank[e.index()] = i;
        }
        rank
    }
}

/// The paper's **Rule 1**: without storing triangles, recover which of an
/// edge's triangles lie in its maximum Triangle K-Core — sort the
/// triangles by "process time" (the smallest processing rank among their
/// edges); the *last* `κ(e)` of them are in the core.
///
/// `ranks` may come from any order non-decreasing in κ, not only a peel
/// order: a triangle whose three edges all have κ ≥ κ(e) has its process
/// time inside the κ ≥ κ(e) block of the order, every other triangle has
/// it before that block, and `e` has at least κ(e) triangles of the first
/// kind. So the last κ(e) triangles by process time all lie in the
/// κ ≥ κ(e) subgraph.
///
/// Returns the apexes `w` of those triangles (each identifies the triangle
/// `{u, v, w}` on the edge `e = {u, v}`).
pub fn core_triangles_of_edge(
    g: &Graph,
    decomp: &Decomposition,
    ranks: &[usize],
    e: EdgeId,
) -> Vec<tkc_graph::VertexId> {
    let k = decomp.kappa(e) as usize;
    if k == 0 {
        return Vec::new();
    }
    let mut tris: Vec<(usize, tkc_graph::VertexId)> = Vec::new();
    g.for_each_triangle_on_edge(e, |w, e1, e2| {
        let process_time = ranks[e.index()]
            .min(ranks[e1.index()])
            .min(ranks[e2.index()]);
        tris.push((process_time, w));
    });
    tris.sort_unstable();
    tris.iter().rev().take(k).map(|&(_, w)| w).collect()
}

/// Runs Algorithm 1 on `g`: every live edge's maximum Triangle K-Core
/// number, plus the processing order. Single-threaded
/// [`triangle_kcore_decomposition_timed`].
///
/// # Examples
///
/// ```
/// use tkc_graph::{generators, Graph};
/// use tkc_core::decompose::triangle_kcore_decomposition;
///
/// // Every edge of K5 has κ = 3 (= 5 - 2).
/// let g = generators::complete(5);
/// let d = triangle_kcore_decomposition(&g);
/// assert!(g.edge_ids().all(|e| d.kappa(e) == 3));
/// assert_eq!(d.max_kappa(), 3);
/// ```
pub fn triangle_kcore_decomposition(g: &Graph) -> Decomposition {
    triangle_kcore_decomposition_timed(g, 1).0
}

/// Wall-clock split of one Algorithm 1 run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Building the oriented CSR snapshot.
    pub freeze: Duration,
    /// The enumeration pass that fixes every edge's support (collecting
    /// the triangles, or counting supports past the memory gate).
    pub supports: Duration,
    /// Building the triangle lookup plus the frontier rounds.
    pub peel: Duration,
}

impl PhaseTimings {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.freeze + self.supports + self.peel
    }
}

/// The in-memory decomposition, on `threads` workers (`0` = available
/// parallelism): freeze the CSR snapshot, run the fused collect-or-bail
/// support pass, then the level-synchronous frontier rounds
/// ([`crate::peel_parallel`]). κ, order, and max κ are identical for
/// every thread count.
///
/// Returns per-phase wall-clock timings too, recorded into the global
/// [`tkc_obs`] registry as `tkc_decompose_phase_seconds{phase=...}`
/// (unless [`tkc_obs::kernel_instrumentation_enabled`] is off) and, when
/// span tracing is on, as `freeze`/`supports`/`peel` spans under the
/// current span.
pub fn triangle_kcore_decomposition_timed(
    g: &Graph,
    threads: usize,
) -> (Decomposition, PhaseTimings) {
    let t0 = Instant::now();
    let csr = Arc::new(CsrGraph::freeze(g));
    let freeze = t0.elapsed();
    let (decomp, supports, peel) = crate::peel_parallel::level_sync_from_csr(&csr, threads);
    let timings = PhaseTimings {
        freeze,
        supports,
        peel,
    };
    if tkc_obs::kernel_instrumentation_enabled() {
        record_phase_timings(&timings);
    }
    (decomp, timings)
}

/// Records one run's phase split into the global registry, and — when
/// span tracing is on — as `freeze`/`supports`/`peel` spans hanging off
/// the span that triggered the decomposition (e.g. a CLI `decompose`
/// request or an engine recovery).
fn record_phase_timings(t: &PhaseTimings) {
    tkc_obs::span::record_manual("freeze", t.freeze);
    tkc_obs::span::record_manual("supports", t.supports);
    tkc_obs::span::record_manual("peel", t.peel);
    let reg = tkc_obs::MetricsRegistry::global();
    const HELP: &str = "Wall-clock time of each Algorithm 1 decompose phase";
    reg.histogram_with(
        "tkc_decompose_phase_seconds",
        HELP,
        1e-9,
        &[("phase", "freeze")],
    )
    .record_duration(t.freeze);
    reg.histogram_with(
        "tkc_decompose_phase_seconds",
        HELP,
        1e-9,
        &[("phase", "supports")],
    )
    .record_duration(t.supports);
    reg.histogram_with(
        "tkc_decompose_phase_seconds",
        HELP,
        1e-9,
        &[("phase", "peel")],
    )
    .record_duration(t.peel);
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::peel_parallel::{level_sync_forced, TriangleLookup};
    use crate::reference::naive_kappa;
    use tkc_graph::{generators, VertexId};

    #[test]
    fn stored_variant_matches_streaming_variant() {
        // Production peels over stored triangles on these sparse graphs;
        // the forced merge lookup re-intersects adjacency instead. Both
        // must match the definitional oracle, with one processing order.
        let check = |g: &Graph, label: &str| {
            let stored = triangle_kcore_decomposition(g);
            let streaming = level_sync_forced(g, 1, TriangleLookup::Merge);
            assert_eq!(stored, streaming, "{label}");
            assert_eq!(stored.kappa_slice(), naive_kappa(g).as_slice(), "{label}");
        };
        for seed in 0..6 {
            check(&generators::gnp(40, 0.2, seed), &format!("gnp seed {seed}"));
        }
        // Also on a structured graph with dead edge slots.
        let mut g = generators::connected_caveman(4, 6);
        let dead = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        g.remove_edge(dead).unwrap();
        check(&g, "caveman with a dead slot");
    }

    fn kappa_of(g: &Graph, u: u32, v: u32, d: &Decomposition) -> u32 {
        d.kappa(g.edge_between(VertexId(u), VertexId(v)).unwrap())
    }

    #[test]
    fn compute_with_threads_is_invariant() {
        // κ, processing order, and max κ must not depend on the thread
        // count — also on graphs big enough for rounds to fan out.
        for seed in 0..4 {
            for g in [
                generators::holme_kim(400, 3, 0.6, seed),
                generators::holme_kim(3_000, 3, 0.6, seed),
            ] {
                let base = triangle_kcore_decomposition(&g);
                for threads in [0, 1, 2, 4] {
                    let d = Decomposition::compute_with(&g, threads);
                    assert_eq!(d.kappa_slice(), base.kappa_slice(), "seed {seed}");
                    assert_eq!(d.order(), base.order(), "seed {seed}, {threads} threads");
                    assert_eq!(d.max_kappa(), base.max_kappa());
                }
            }
        }
    }

    #[test]
    fn timed_variant_matches_and_reports_phases() {
        for threads in [1, 3] {
            let g = generators::holme_kim(300, 3, 0.5, 7);
            let (d, t) = triangle_kcore_decomposition_timed(&g, threads);
            assert_eq!(d.kappa_slice(), naive_kappa(&g).as_slice());
            // The peel always runs; supports always run; totals add up.
            assert!(t.peel > Duration::ZERO);
            assert_eq!(t.total(), t.freeze + t.supports + t.peel);
        }
        // Phase histograms land in the global registry.
        let text = tkc_obs::MetricsRegistry::global().render();
        assert!(text.contains("tkc_decompose_phase_seconds_bucket{phase=\"peel\""));
        assert!(text.contains("tkc_decompose_phase_seconds_bucket{phase=\"supports\""));
    }

    #[test]
    fn compute_with_handles_dead_slots() {
        let mut g = generators::planted_partition(3, 12, 0.7, 0.05, 2);
        let victims: Vec<_> = g.edge_ids().step_by(7).collect();
        for e in victims {
            g.remove_edge(e).unwrap();
        }
        let par = Decomposition::compute_with(&g, 3);
        assert_eq!(par.kappa_slice(), naive_kappa(&g).as_slice());
        assert_eq!(par, triangle_kcore_decomposition(&g));
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let d = triangle_kcore_decomposition(&Graph::new());
        assert_eq!(d.max_kappa(), 0);
        assert!(d.order().is_empty());

        let path = generators::path(4);
        let d = triangle_kcore_decomposition(&path);
        assert_eq!(d.max_kappa(), 0);
        assert_eq!(d.order().len(), 3);
        for e in path.edge_ids() {
            assert_eq!(d.kappa(e), 0);
            assert_eq!(d.co_clique_size(e), 2);
        }
    }

    #[test]
    fn clique_kappa_is_n_minus_2() {
        for n in 3..=8 {
            let g = generators::complete(n);
            let d = triangle_kcore_decomposition(&g);
            for e in g.edge_ids() {
                assert_eq!(d.kappa(e), n as u32 - 2, "K{n}");
            }
        }
    }

    #[test]
    fn paper_figure_2_example() {
        // Figure 2: vertices A=0,B=1,C=2,D=3,E=4.
        // Edges AB, AC, BC, BD, BE, CD, CE, DE.
        // Expected: κ(AB)=κ(AC)=1, all others 2.
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
        let d = triangle_kcore_decomposition(&g);
        assert_eq!(kappa_of(&g, 0, 1, &d), 1, "AB");
        assert_eq!(kappa_of(&g, 0, 2, &d), 1, "AC");
        for (u, v) in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)] {
            assert_eq!(kappa_of(&g, u, v, &d), 2, "({u},{v})");
        }
        assert_eq!(d.max_kappa(), 2);
        // Initial support of BC is 3; it is peeled down to 2.
        assert_eq!(d.histogram(), vec![0, 2, 6]);
    }

    #[test]
    fn figure_1b_minimal_triangle_2_core() {
        // Figure 1(b): 5 vertices, every edge in >= 2 triangles using
        // minimal edges — K5 minus a perfect matching is impossible on 5
        // vertices; the paper's minimal construction is K5 minus two
        // disjoint edges (8 edges). Verify it yields κ = 2 everywhere.
        let g = Graph::from_edges(
            5,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 4),
                (3, 4),
                (0, 3),
                (0, 4),
            ],
        );
        let d = triangle_kcore_decomposition(&g);
        // This 8-edge graph realizes Triangle K-Core number >= 1 everywhere.
        for e in g.edge_ids() {
            assert!(d.kappa(e) >= 1);
        }
    }

    #[test]
    fn order_is_sorted_by_kappa() {
        let g = generators::planted_partition(3, 8, 0.8, 0.05, 3);
        let d = triangle_kcore_decomposition(&g);
        let ks: Vec<u32> = d.order().iter().map(|&e| d.kappa(e)).collect();
        assert!(ks.windows(2).all(|w| w[0] <= w[1]), "order not monotone");
        assert_eq!(d.order().len(), g.num_edges());
    }

    #[test]
    fn two_disjoint_cliques() {
        let mut g = generators::complete(6);
        let base = g.num_vertices();
        g.add_vertices(4);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                g.add_edge(VertexId(base as u32 + i), VertexId(base as u32 + j))
                    .unwrap();
            }
        }
        let d = triangle_kcore_decomposition(&g);
        for (e, u, _) in g.edges() {
            let expected = if u.index() < base { 4 } else { 2 };
            assert_eq!(d.kappa(e), expected);
        }
    }

    #[test]
    fn kappa_upper_bounded_by_support() {
        let g = generators::gnp(60, 0.15, 9);
        let sup = tkc_graph::triangles::edge_supports(&g);
        let d = triangle_kcore_decomposition(&g);
        for e in g.edge_ids() {
            assert!(d.kappa(e) <= sup[e.index()]);
        }
    }

    #[test]
    fn decomposition_ignores_dead_slots() {
        let mut g = generators::complete(5);
        let dead = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        g.remove_edge(dead).unwrap();
        let d = triangle_kcore_decomposition(&g);
        assert_eq!(d.kappa(dead), 0);
        assert_eq!(d.order().len(), 9);
        // K5 minus an edge: the 6 edges among {2,3,4} plus pairs... every
        // remaining edge still has κ = 2 (K4s remain).
        for e in g.edge_ids() {
            assert!(d.kappa(e) >= 2);
        }
    }

    #[test]
    fn histogram_counts_live_edges() {
        let g = generators::complete(4);
        let d = triangle_kcore_decomposition(&g);
        assert_eq!(d.histogram(), vec![0, 0, 6]);
    }

    #[test]
    fn rule_1_recovers_core_triangles() {
        // For every edge, the κ(e) triangles Rule 1 selects must each have
        // both other edges at κ >= κ(e) — i.e., they are a valid witness
        // for the maximum core (Theorem 1). Any order non-decreasing in κ
        // will do, so the synthesized `from_kappa` order must work too.
        for seed in 0..6 {
            let g = generators::gnp(20, 0.3, seed);
            let peeled = triangle_kcore_decomposition(&g);
            let synthesized = Decomposition::from_kappa(&g, peeled.kappa_slice().to_vec());
            for d in [&peeled, &synthesized] {
                let ranks = d.ranks();
                for e in g.edge_ids() {
                    let (u, v) = g.endpoints(e);
                    let apexes = core_triangles_of_edge(&g, d, &ranks, e);
                    assert_eq!(apexes.len(), d.kappa(e) as usize, "seed {seed}");
                    for w in apexes {
                        let e1 = g.edge_between(u, w).unwrap();
                        let e2 = g.edge_between(v, w).unwrap();
                        assert!(d.kappa(e1) >= d.kappa(e), "rule 1 witness violated");
                        assert!(d.kappa(e2) >= d.kappa(e), "rule 1 witness violated");
                    }
                }
            }
        }
    }

    #[test]
    fn ranks_invert_the_order() {
        let g = generators::planted_partition(2, 8, 0.7, 0.1, 3);
        let d = triangle_kcore_decomposition(&g);
        let ranks = d.ranks();
        for (i, &e) in d.order().iter().enumerate() {
            assert_eq!(ranks[e.index()], i);
        }
    }

    #[test]
    fn from_kappa_view_matches_real_decomposition() {
        let mut g = generators::planted_partition(2, 8, 0.7, 0.1, 5);
        // Dead slots in the id space must stay harmless.
        let victim = g.edge_ids().nth(2).unwrap();
        g.remove_edge(victim).unwrap();
        let d = triangle_kcore_decomposition(&g);
        let view = Decomposition::from_kappa(&g, d.kappa_slice().to_vec());
        assert_eq!(view.max_kappa(), d.max_kappa());
        assert_eq!(view.histogram(), d.histogram());
        for e in g.edge_ids() {
            assert_eq!(view.kappa(e), d.kappa(e));
        }
        // Synthesized order is non-decreasing in κ and covers every live edge.
        assert_eq!(view.order().len(), g.num_edges());
        for w in view.order().windows(2) {
            assert!(view.kappa(w[0]) <= view.kappa(w[1]));
        }
    }

    #[test]
    fn into_kappa_matches_accessor() {
        let g = generators::gnp(30, 0.2, 4);
        let d = triangle_kcore_decomposition(&g);
        let by_accessor: Vec<u32> = (0..g.edge_bound() as u32)
            .map(|i| d.kappa(EdgeId(i)))
            .collect();
        assert_eq!(d.into_kappa(), by_accessor);
    }
}
