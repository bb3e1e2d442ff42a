//! Incremental maintenance of all κ(e) under edge insertions and deletions
//! — the paper's Algorithm 2, with the appendix's Algorithms 5–7 realized
//! through the locality its correctness proof rests on:
//!
//! * **Rule 0**: when a single triangle appears or disappears, only edges
//!   whose κ equals μ — the minimum κ over the triangle's three edges — can
//!   change, and they change by exactly 1 (Lemmas 1–2).
//!
//! While an edge `e = {u, v}` is updated, some of its triangles are
//! *inactive* (excluded from support counting). Every one of them contains
//! `e`, so it is named by its third vertex in a stamped per-vertex mark
//! array (`Pending`) — no hashing on the hot path.
//!
//! **Insertion** processes one triangle at a time. The new edge enters the
//! graph with all of its triangles inactive, so its κ correctly starts at
//! 0; activating a triangle runs a *promote closure* at level μ. The new
//! edge's own κ climbs one level per triangle, so the closures are not
//! shared.
//!
//! **Deletion** runs one *demote cascade* per distinct level, not one per
//! dying triangle. Every dying triangle is marked inactive up front and
//! grouped by its μ, taken before any cascade runs. Each group's level-μ
//! edges, other than `e` itself, seed one cascade at level μ, and the
//! levels run in ascending order. This is exact (Zhou & Liu, *Efficient
//! Truss Maintenance in Evolving Networks*):
//!
//! 1. An edge `f ≠ e` shares at most one triangle with `e`, so its κ drops
//!    by at most one.
//! 2. A level-k cascade reads only edges with κ ≥ k, and it moves edges
//!    only from k to k − 1. It demotes an edge only when fewer than k of
//!    its active triangles have both other edges at κ ≥ k, so it never
//!    demotes an edge whose final κ is k; and an edge at level k loses
//!    level-k support only through a dying triangle of μ = k (a seed) or
//!    a level-k neighbor dropping (the cascade), so it misses none.
//! 3. A cascade at a higher level j moves edges from j to j − 1 ≥ k, so
//!    they still count at level k, and by (1) they fall no further.
//!    Levels therefore do not interact when they run low to high.
//! 4. Run high to low, an edge just demoted from k + 1 to k would be
//!    examined again by the level-k cascade. By (1)–(3) it would survive,
//!    so the order does not change κ, only the work; ascending order
//!    never shows a level-k cascade such an edge.
//! 5. `e` is in every dying triangle, all of which are inactive, so its κ
//!    affects no other edge. It is never demoted, only dropped.
//!
//! After every public operation the maintained κ vector equals what
//! Algorithm 1 would compute from scratch — a property the test-suite
//! checks exhaustively on random edit scripts.

use tkc_graph::{EdgeId, Graph, GraphError, VertexId};

use crate::decompose::triangle_kcore_decomposition;

/// Cheap operation counters, exposed so the Table III harness and the
/// ablation benches can report *why* updates are fast.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Triangles activated (edge insertions).
    pub triangles_added: u64,
    /// Triangles deactivated (edge deletions).
    pub triangles_removed: u64,
    /// Edges whose κ increased.
    pub promotions: u64,
    /// Edges whose κ decreased. The removed edge itself is never demoted
    /// (its κ affects no other edge), so it is not counted.
    pub demotions: u64,
    /// Candidate edges examined across all closures.
    pub edges_examined: u64,
}

impl UpdateStats {
    /// Merges another counter set into this one.
    pub fn absorb(&mut self, other: UpdateStats) {
        self.triangles_added += other.triangles_added;
        self.triangles_removed += other.triangles_removed;
        self.promotions += other.promotions;
        self.demotions += other.demotions;
        self.edges_examined += other.edges_examined;
    }
}

/// A graph together with incrementally-maintained κ(e) for every edge.
///
/// # Examples
///
/// ```
/// use tkc_graph::{generators, VertexId};
/// use tkc_core::dynamic::DynamicTriangleKCore;
///
/// // K4 minus one edge: κ = 1 everywhere; adding the missing edge lifts
/// // the whole subgraph to κ = 2 (it becomes K4).
/// let mut g = generators::complete(4);
/// g.remove_edge_between(VertexId(0), VertexId(1)).unwrap();
/// let mut dyn_core = DynamicTriangleKCore::new(g);
/// let e = dyn_core.insert_edge(VertexId(0), VertexId(1)).unwrap();
/// assert_eq!(dyn_core.kappa(e), 2);
/// assert!(dyn_core.graph().edge_ids().all(|e| dyn_core.kappa(e) == 2));
/// ```
#[derive(Debug, Clone)]
pub struct DynamicTriangleKCore {
    g: Graph,
    kappa: Vec<u32>,
    stats: UpdateStats,
    scratch: Scratch,
    pending: Pending,
}

/// Reusable stamped scratch arrays: `x_stamp[e] == stamp` means the entry
/// is valid for the current closure. Bumping `stamp` clears everything in
/// O(1); the arrays are sized to the edge bound and persist across
/// operations so the hot loops do no hashing and no allocation.
#[derive(Debug, Clone, Default)]
struct Scratch {
    stamp: u32,
    supp_stamp: Vec<u32>,
    supp_val: Vec<u32>,
    seen_stamp: Vec<u32>,
    state_stamp: Vec<u32>,
    state_val: Vec<u8>,
    s_stamp: Vec<u32>,
    s_val: Vec<u32>,
    tri_buf: Vec<(VertexId, EdgeId, EdgeId)>,
    queue: Vec<EdgeId>,
}

impl Scratch {
    fn begin(&mut self, bound: usize) {
        if self.supp_stamp.len() < bound {
            self.supp_stamp.resize(bound, 0);
            self.supp_val.resize(bound, 0);
            self.seen_stamp.resize(bound, 0);
            self.state_stamp.resize(bound, 0);
            self.state_val.resize(bound, 0);
            self.s_stamp.resize(bound, 0);
            self.s_val.resize(bound, 0);
        }
        if self.stamp == u32::MAX {
            self.supp_stamp.fill(0);
            self.seen_stamp.fill(0);
            self.state_stamp.fill(0);
            self.s_stamp.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }
}

/// The inactive triangles of the edge being updated. Each contains that
/// edge, so it is named by its third vertex: `w` is pending iff
/// `mark[w] == stamp`. Bumping `stamp` clears every mark in O(1); the
/// buffers persist across operations.
#[derive(Debug, Clone, Default)]
struct Pending {
    edge: EdgeId,
    stamp: u32,
    len: usize,
    mark: Vec<u32>,
    /// The updated edge's triangles `(w, e_uw, e_vw)`.
    tris: Vec<(VertexId, EdgeId, EdgeId)>,
    /// Demote seeds `(μ, edge)` of a deletion, sorted by level.
    seeds: Vec<(u32, EdgeId)>,
}

impl Pending {
    /// Starts an update of `edge`: collects its triangles and marks every
    /// one of them inactive.
    fn begin(&mut self, g: &Graph, edge: EdgeId) {
        if self.mark.len() < g.num_vertices() {
            self.mark.resize(g.num_vertices(), 0);
        }
        if self.stamp == u32::MAX {
            self.mark.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.edge = edge;
        self.tris.clear();
        self.seeds.clear();
        g.for_each_triangle_on_edge(edge, |w, e_uw, e_vw| self.tris.push((w, e_uw, e_vw)));
        for &(w, _, _) in &self.tris {
            self.mark[w.index()] = self.stamp;
        }
        self.len = self.tris.len();
    }

    /// Activates the updated edge's triangle with third vertex `w`.
    fn unmark(&mut self, w: VertexId) {
        self.mark[w.index()] = 0;
        self.len -= 1;
    }

    /// Whether the triangle that `f = {x, y}` forms with `w` (through
    /// `e1 = {x, w}` and `e2 = {y, w}`) is inactive.
    #[inline]
    fn contains(
        &self,
        f: EdgeId,
        (x, y): (VertexId, VertexId),
        w: VertexId,
        e1: EdgeId,
        e2: EdgeId,
    ) -> bool {
        if self.len == 0 {
            return false;
        }
        let third = if f == self.edge {
            w
        } else if e1 == self.edge {
            y
        } else if e2 == self.edge {
            x
        } else {
            return false;
        };
        self.mark[third.index()] == self.stamp
    }
}

impl DynamicTriangleKCore {
    /// Takes ownership of a graph and runs Algorithm 1 once to seed κ.
    pub fn new(g: Graph) -> Self {
        let kappa = triangle_kcore_decomposition(&g).into_kappa();
        DynamicTriangleKCore {
            g,
            kappa,
            stats: UpdateStats::default(),
            scratch: Scratch::default(),
            pending: Pending::default(),
        }
    }

    /// Wraps a graph with a precomputed κ vector (must come from
    /// [`triangle_kcore_decomposition`] of the same graph).
    pub fn from_parts(g: Graph, kappa: Vec<u32>) -> Self {
        assert!(
            kappa.len() >= g.edge_bound(),
            "kappa vector shorter than edge bound"
        );
        DynamicTriangleKCore {
            g,
            kappa,
            stats: UpdateStats::default(),
            scratch: Scratch::default(),
            pending: Pending::default(),
        }
    }

    /// The underlying graph (read-only; mutate through this wrapper).
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// Maintained κ of a live edge.
    #[inline]
    pub fn kappa(&self, e: EdgeId) -> u32 {
        self.kappa[e.index()]
    }

    /// The κ vector indexed by raw edge id (dead slots read 0).
    #[inline]
    pub fn kappa_slice(&self) -> &[u32] {
        &self.kappa
    }

    /// Accumulated operation counters.
    #[inline]
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }

    /// Resets the operation counters.
    pub fn reset_stats(&mut self) {
        self.stats = UpdateStats::default();
    }

    /// Consumes the maintainer, returning graph and κ vector.
    pub fn into_parts(self) -> (Graph, Vec<u32>) {
        (self.g, self.kappa)
    }

    /// Grows the vertex set (ids are dense; new vertices are isolated).
    pub fn add_vertices(&mut self, n: usize) {
        self.g.add_vertices(n);
    }

    /// Inserts edge `{u, v}` and incrementally updates κ (Algorithm 5).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, GraphError> {
        let e = self.g.add_edge(u, v)?;
        if self.kappa.len() < self.g.edge_bound() {
            self.kappa.resize(self.g.edge_bound(), 0);
        }
        // A new edge with no *active* triangles has κ = 0.
        self.kappa[e.index()] = 0;

        // The created triangles start inactive; activate them one at a time.
        let mut pending = std::mem::take(&mut self.pending);
        pending.begin(&self.g, e);
        for i in 0..pending.tris.len() {
            let (w, e_uw, e_vw) = pending.tris[i];
            pending.unmark(w);
            self.stats.triangles_added += 1;
            self.activate_triangle([e, e_uw, e_vw], &pending);
        }
        self.pending = pending;
        Ok(e)
    }

    /// Removes edge `{u, v}` and incrementally updates κ (Algorithm 7).
    pub fn remove_edge_between(&mut self, u: VertexId, v: VertexId) -> Result<EdgeId, GraphError> {
        let e = self
            .g
            .edge_between(u, v)
            .ok_or(GraphError::MissingEdge(u, v))?;
        self.remove_edge(e)?;
        Ok(e)
    }

    /// Removes live edge `e` and incrementally updates κ (Algorithm 7).
    pub fn remove_edge(&mut self, e: EdgeId) -> Result<(), GraphError> {
        if !self.g.is_live(e) {
            return Err(GraphError::MissingEdge(VertexId(0), VertexId(0)));
        }
        // Deactivate every dying triangle up front, then run one demote
        // cascade per distinct μ in ascending order. The edge itself stays
        // in the graph until the end but is never a seed: all of its
        // triangles are inactive, so its κ affects no other edge.
        let mut pending = std::mem::take(&mut self.pending);
        pending.begin(&self.g, e);
        self.stats.triangles_removed += pending.tris.len() as u64;
        let k = |x: EdgeId| self.kappa[x.index()];
        for &(_, e_uw, e_vw) in &pending.tris {
            let mu = k(e).min(k(e_uw)).min(k(e_vw));
            for x in [e_uw, e_vw] {
                // κ cannot drop below zero.
                if mu > 0 && k(x) == mu {
                    pending.seeds.push((mu, x));
                }
            }
        }
        pending.seeds.sort_unstable();
        let mut i = 0;
        while i < pending.seeds.len() {
            let mu = pending.seeds[i].0;
            let end = i + pending.seeds[i..].partition_point(|&(m, _)| m == mu);
            self.demote_level(mu, &pending.seeds[i..end], &pending);
            i = end;
        }
        self.pending = pending;
        self.g.remove_edge(e)?;
        self.kappa[e.index()] = 0;
        Ok(())
    }

    /// Removes every edge incident to `v` (vertex departure), maintaining
    /// κ through each removal. Returns the number of edges removed.
    pub fn isolate_vertex(&mut self, v: VertexId) -> usize {
        let incident: Vec<EdgeId> = self.g.neighbors(v).map(|(_, e)| e).collect();
        let n = incident.len();
        for e in incident {
            self.remove_edge(e).expect("incident edge must be live");
        }
        n
    }

    /// Applies a batch of operations; unknown removals and duplicate
    /// insertions are skipped. Returns `(inserted, removed)` counts.
    pub fn apply_batch<I>(&mut self, ops: I) -> (usize, usize)
    where
        I: IntoIterator<Item = BatchOp>,
    {
        let (mut ins, mut del) = (0, 0);
        for op in ops {
            match op {
                BatchOp::Insert(u, v) => {
                    if self.g.contains_vertex(u)
                        && self.g.contains_vertex(v)
                        && u != v
                        && !self.g.has_edge(u, v)
                        && self.insert_edge(u, v).is_ok()
                    {
                        ins += 1;
                    }
                }
                BatchOp::Remove(u, v) => {
                    if self.remove_edge_between(u, v).is_ok() {
                        del += 1;
                    }
                }
            }
        }
        (ins, del)
    }

    /// Counts the *active* triangles on `f` whose other two edges satisfy
    /// `ok`, where active means not in `pending`.
    fn count_active<F>(&self, f: EdgeId, pending: &Pending, ok: F) -> u32
    where
        F: Fn(EdgeId) -> bool,
    {
        self.count_active_capped(f, pending, ok, u32::MAX)
    }

    /// Like [`Self::count_active`] but stops as soon as `cap` qualifying
    /// triangles are found — for pure threshold tests (`> μ`?) on hub
    /// edges with hundreds of triangles, this turns O(deg) into O(μ)-ish.
    fn count_active_capped<F>(&self, f: EdgeId, pending: &Pending, ok: F, cap: u32) -> u32
    where
        F: Fn(EdgeId) -> bool,
    {
        let ends = self.g.endpoints(f);
        let mut n = 0;
        self.g.for_each_triangle_on_edge_while(f, |w, e1, e2| {
            if ok(e1) && ok(e2) && !pending.contains(f, ends, w, e1, e2) {
                n += 1;
            }
            n < cap
        });
        n
    }

    /// Promote closure at level μ = min κ of the activated triangle's
    /// edges: the exact set of level-μ edges whose κ rises to μ+1.
    ///
    /// The traversal integrates the peel: an edge *qualifies* as a
    /// potential supporter when `κ > μ`, or when it sits at level μ, has
    /// optimistic support `supp > μ` (triangles whose others are ≥ μ — a
    /// frozen quantity within one closure) and has not been eliminated.
    /// Qualification only decays, so each edge's support count can be
    /// maintained exactly under eliminations, eliminations cascade
    /// immediately, and expansion never proceeds through edges that cannot
    /// be promoted. When the traversal drains, the surviving candidates
    /// are exactly the peel fixpoint — no post-pass needed.
    fn activate_triangle(&mut self, tri_edges: [EdgeId; 3], pending: &Pending) {
        let [ea, eb, ec] = tri_edges;
        let mu = self.kappa[ea.index()]
            .min(self.kappa[eb.index()])
            .min(self.kappa[ec.index()]);
        #[cfg(feature = "check-invariants")]
        let kappa_before = self.kappa.clone();

        // Stamped scratch: per-closure state with O(1) reset and no hashing
        // in the hot loops.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.begin(self.g.edge_bound());
        let stamp = scratch.stamp;

        const ALIVE: u8 = 1;
        const DEAD: u8 = 2;
        macro_rules! state {
            ($x:expr) => {{
                let x: EdgeId = $x;
                if scratch.state_stamp[x.index()] == stamp {
                    scratch.state_val[x.index()]
                } else {
                    0 // unvisited
                }
            }};
        }
        macro_rules! set_state {
            ($x:expr, $v:expr) => {{
                let x: EdgeId = $x;
                scratch.state_stamp[x.index()] = stamp;
                scratch.state_val[x.index()] = $v;
            }};
        }
        // Optimistic level-μ support, memoized and capped at μ+1 (only the
        // "> μ" comparison matters). Frozen during the closure.
        macro_rules! supp {
            ($x:expr) => {{
                let x: EdgeId = $x;
                if scratch.supp_stamp[x.index()] == stamp {
                    scratch.supp_val[x.index()]
                } else {
                    let v = self.count_active_capped(
                        x,
                        pending,
                        |y| self.kappa[y.index()] >= mu,
                        mu + 1,
                    );
                    scratch.supp_stamp[x.index()] = stamp;
                    scratch.supp_val[x.index()] = v;
                    v
                }
            }};
        }
        // A potential supporter right now: settled higher edge, or a
        // non-eliminated, non-tight level-μ edge.
        macro_rules! qual {
            ($x:expr) => {{
                let x: EdgeId = $x;
                if self.kappa[x.index()] > mu {
                    true
                } else {
                    state!(x) != DEAD && supp!(x) > mu
                }
            }};
        }

        let mut visit_stack: Vec<EdgeId> = Vec::new();
        for &x in &tri_edges {
            if self.kappa[x.index()] == mu && scratch.seen_stamp[x.index()] != stamp {
                scratch.seen_stamp[x.index()] = stamp;
                visit_stack.push(x);
            }
        }
        let mut tris = std::mem::take(&mut scratch.tri_buf);
        let mut elim_stack: Vec<EdgeId> = Vec::new();
        let mut candidates: Vec<EdgeId> = Vec::new();
        // Death sequence numbers attribute each invalidated triangle to the
        // *earliest-dying* of its members, so simultaneous deaths within
        // one cascade step still deduct every affected support exactly
        // once. A dead edge's sequence lives in its (no longer needed)
        // `s_val` slot.
        let mut death_counter: u32 = 0;

        while let Some(f) = visit_stack.pop() {
            if state!(f) != 0 {
                continue; // eliminated while queued
            }
            self.stats.edges_examined += 1;
            if supp!(f) <= mu {
                // Tight: never qualified, so no neighbor counted triangles
                // through it — die without cascading.
                set_state!(f, DEAD);
                scratch.s_stamp[f.index()] = stamp;
                scratch.s_val[f.index()] = death_counter;
                death_counter += 1;
                continue;
            }
            // Exact current support: active triangles with both others
            // qualified. Counted triangles' unvisited level-μ members are
            // pushed so the optimism in `qual` resolves by termination.
            let ends = self.g.endpoints(f);
            tris.clear();
            self.g.for_each_triangle_on_edge(f, |w, e1, e2| {
                tris.push((w, e1, e2));
            });
            let mut s = 0u32;
            let push_from = visit_stack.len();
            for &(w, e1, e2) in &tris {
                if pending.contains(f, ends, w, e1, e2) {
                    continue;
                }
                if qual!(e1) && qual!(e2) {
                    s += 1;
                    for x in [e1, e2] {
                        if self.kappa[x.index()] == mu && scratch.seen_stamp[x.index()] != stamp {
                            scratch.seen_stamp[x.index()] = stamp;
                            visit_stack.push(x);
                        }
                    }
                }
            }
            scratch.s_stamp[f.index()] = stamp;
            if s <= mu {
                // Cannot be promoted. Retract this visit's own pushes — a
                // promotable edge is always rediscoverable through the
                // promoted set itself (P-connectivity), so candidates only
                // reachable through a dead edge need not be explored.
                for &x in &visit_stack[push_from..] {
                    scratch.seen_stamp[x.index()] = stamp.wrapping_sub(1);
                }
                visit_stack.truncate(push_from);
                // Neighbors may have counted triangles through f (it was
                // qualified until now): cascade.
                set_state!(f, DEAD);
                scratch.s_val[f.index()] = death_counter;
                death_counter += 1;
                elim_stack.push(f);
                self.cascade_eliminations(
                    &mut elim_stack,
                    &mut scratch,
                    stamp,
                    mu,
                    pending,
                    &mut tris,
                    &mut death_counter,
                );
            } else {
                set_state!(f, ALIVE);
                scratch.s_val[f.index()] = s;
                candidates.push(f);
            }
        }

        // Survivors are promoted to μ + 1.
        for f in candidates {
            if scratch.state_stamp[f.index()] == stamp && scratch.state_val[f.index()] == ALIVE {
                self.kappa[f.index()] = mu + 1;
                self.stats.promotions += 1;
            }
        }
        scratch.tri_buf = tris;
        self.scratch = scratch;
        #[cfg(feature = "check-invariants")]
        self.debug_check_rule0(&kappa_before, mu, true);
    }

    /// Rule 0 locality audit (`check-invariants` builds only): after one
    /// promote closure or one level's demote cascade at level μ, every κ
    /// change across the whole graph must be exactly ±1 and confined to
    /// edges that sat at level μ before the closure ran.
    #[cfg(feature = "check-invariants")]
    fn debug_check_rule0(&self, before: &[u32], mu: u32, rising: bool) {
        let expected = if rising { mu + 1 } else { mu.saturating_sub(1) };
        for (i, (&b, &a)) in before.iter().zip(self.kappa.iter()).enumerate() {
            if b == a {
                continue;
            }
            // analyze: invariant(kappa_matches_recompute)
            debug_assert_eq!(
                b, mu,
                "Rule 0 violation: edge {i} changed level but sat at {b}, not \u{3bc} = {mu}"
            );
            // analyze: invariant(kappa_matches_recompute)
            debug_assert_eq!(
                a, expected,
                "Rule 0 violation: edge {i} moved {b} -> {a}, expected {expected}"
            );
        }
    }

    /// Propagates eliminations during a promote closure. Each edge popped
    /// from `elim_stack` is DEAD with a death sequence number; for every
    /// invalidated triangle it deducts the support of alive members iff it
    /// is the *earliest-dying* disqualified member — so each triangle is
    /// deducted exactly once even when several members die in one step.
    #[allow(clippy::too_many_arguments)]
    fn cascade_eliminations(
        &mut self,
        elim_stack: &mut Vec<EdgeId>,
        scratch: &mut Scratch,
        stamp: u32,
        mu: u32,
        pending: &Pending,
        tris: &mut Vec<(VertexId, EdgeId, EdgeId)>,
        death_counter: &mut u32,
    ) {
        const ALIVE: u8 = 1;
        const DEAD: u8 = 2;
        while let Some(f) = elim_stack.pop() {
            let my_seq = scratch.s_val[f.index()];
            let ends = self.g.endpoints(f);
            tris.clear();
            self.g.for_each_triangle_on_edge(f, |w, e1, e2| {
                tris.push((w, e1, e2));
            });
            for &(w, e1, e2) in tris.iter() {
                if pending.contains(f, ends, w, e1, e2) {
                    continue;
                }
                for (n, other) in [(e1, e2), (e2, e1)] {
                    // n loses the triangle iff it is an alive candidate,
                    // the third edge was ever shape-qualified (else the
                    // triangle was never counted), and f is the first of
                    // the triangle's members to die (else the earlier death
                    // already deducted it).
                    let n_alive = scratch.state_stamp[n.index()] == stamp
                        && scratch.state_val[n.index()] == ALIVE;
                    if !n_alive {
                        continue;
                    }
                    let other_shape = if self.kappa[other.index()] > mu {
                        true
                    } else if self.kappa[other.index()] < mu {
                        false
                    } else {
                        // Optimistic support is frozen and memoized.
                        let sv = if scratch.supp_stamp[other.index()] == stamp {
                            scratch.supp_val[other.index()]
                        } else {
                            let v = self.count_active_capped(
                                other,
                                pending,
                                |y| self.kappa[y.index()] >= mu,
                                mu + 1,
                            );
                            scratch.supp_stamp[other.index()] = stamp;
                            scratch.supp_val[other.index()] = v;
                            v
                        };
                        sv > mu
                    };
                    if !other_shape {
                        continue; // triangle was never counted by n
                    }
                    let other_dead = scratch.state_stamp[other.index()] == stamp
                        && scratch.state_val[other.index()] == DEAD;
                    if other_dead && scratch.s_val[other.index()] < my_seq {
                        continue; // the other member died first and deducted
                    }
                    debug_assert_eq!(scratch.s_stamp[n.index()], stamp);
                    scratch.s_val[n.index()] -= 1;
                    if scratch.s_val[n.index()] <= mu {
                        scratch.state_val[n.index()] = DEAD;
                        scratch.s_val[n.index()] = *death_counter;
                        *death_counter += 1;
                        elim_stack.push(n);
                    }
                }
            }
        }
    }

    /// Demote cascade at level μ, seeded with the level-μ edges of the
    /// dying triangles whose μ this is: level-μ edges left with fewer than
    /// μ supporting triangles drop to μ − 1 and may take level-μ neighbors
    /// with them. It reads only edges with κ ≥ μ.
    fn demote_level(&mut self, mu: u32, seeds: &[(u32, EdgeId)], pending: &Pending) {
        #[cfg(feature = "check-invariants")]
        let kappa_before = self.kappa.clone();

        // Support at level μ (active triangles whose other edges have
        // κ ≥ μ) lives in the stamped `s_val`, computed at an edge's first
        // touch and deducted as its neighbors drop.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.begin(self.g.edge_bound());
        let stamp = scratch.stamp;
        let mut queue = std::mem::take(&mut scratch.queue);
        let mut examined = 0u64;
        for &(_, f) in seeds {
            if scratch.s_stamp[f.index()] != stamp {
                let sf = self.count_active(f, pending, |x| self.kappa[x.index()] >= mu);
                scratch.s_stamp[f.index()] = stamp;
                scratch.s_val[f.index()] = sf;
                examined += 1;
                if sf < mu {
                    queue.push(f);
                }
            }
        }

        while let Some(f) = queue.pop() {
            if self.kappa[f.index()] != mu {
                continue; // already demoted via another path
            }
            self.kappa[f.index()] = mu - 1;
            self.stats.demotions += 1;
            // Neighbors at level μ lose every triangle shared with f whose
            // third edge is still ≥ μ.
            let this = &*self;
            let ends = this.g.endpoints(f);
            this.g.for_each_triangle_on_edge(f, |w, e1, e2| {
                if pending.contains(f, ends, w, e1, e2) {
                    return;
                }
                for (nbr, other) in [(e1, e2), (e2, e1)] {
                    if this.kappa[nbr.index()] != mu || this.kappa[other.index()] < mu {
                        continue;
                    }
                    examined += 1;
                    let s = if scratch.s_stamp[nbr.index()] == stamp {
                        // Tracked: the triangle was counted while f sat at
                        // level μ; deduct the loss.
                        scratch.s_val[nbr.index()].saturating_sub(1)
                    } else {
                        // First touch: a fresh count already sees
                        // κ(f) = μ − 1, so no deduction.
                        this.count_active(nbr, pending, |x| this.kappa[x.index()] >= mu)
                    };
                    scratch.s_stamp[nbr.index()] = stamp;
                    scratch.s_val[nbr.index()] = s;
                    if s < mu {
                        queue.push(nbr);
                    }
                }
            });
        }
        scratch.queue = queue;
        self.scratch = scratch;
        self.stats.edges_examined += examined;
        #[cfg(feature = "check-invariants")]
        self.debug_check_rule0(&kappa_before, mu, false);
    }
}

/// One operation in a batch update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert edge `{u, v}`.
    Insert(VertexId, VertexId),
    /// Remove edge `{u, v}`.
    Remove(VertexId, VertexId),
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use tkc_graph::generators;

    /// Oracle check: maintained κ equals a fresh Algorithm 1 run.
    fn assert_consistent(d: &DynamicTriangleKCore) {
        let fresh = triangle_kcore_decomposition(d.graph());
        for e in d.graph().edge_ids() {
            assert_eq!(
                d.kappa(e),
                fresh.kappa(e),
                "κ mismatch on edge {e:?} ({:?})",
                d.graph().endpoints(e)
            );
        }
    }

    #[test]
    fn paper_figure_3_example() {
        // Figure 3: solid edges AB, BC, AE, AF, EF, CD, CE, DE with
        // κ = {AB:0, BC:0, AE:1, AF:1, EF:1, CD:1, CE:1, DE:1}; adding AC
        // lifts AB, BC, AC to 1 and leaves the rest at 1.
        // Vertices: A=0, B=1, C=2, D=3, E=4, F=5.
        let g = Graph::from_edges(
            6,
            [
                (0, 1), // AB
                (1, 2), // BC
                (0, 4), // AE
                (0, 5), // AF
                (4, 5), // EF
                (2, 3), // CD
                (2, 4), // CE
                (3, 4), // DE
            ],
        );
        let mut d = DynamicTriangleKCore::new(g);
        let k = |d: &DynamicTriangleKCore, u: u32, v: u32| {
            d.kappa(d.graph().edge_between(VertexId(u), VertexId(v)).unwrap())
        };
        assert_eq!(k(&d, 0, 1), 0);
        assert_eq!(k(&d, 1, 2), 0);
        assert_eq!(k(&d, 0, 4), 1);

        let ac = d.insert_edge(VertexId(0), VertexId(2)).unwrap();
        assert_eq!(d.kappa(ac), 1, "AC");
        assert_eq!(k(&d, 0, 1), 1, "AB");
        assert_eq!(k(&d, 1, 2), 1, "BC");
        assert_eq!(k(&d, 0, 4), 1, "AE");
        assert_eq!(k(&d, 2, 4), 1, "CE");
        assert_consistent(&d);

        // And removing AC must restore the original values.
        d.remove_edge(ac).unwrap();
        assert_eq!(k(&d, 0, 1), 0);
        assert_eq!(k(&d, 1, 2), 0);
        assert_consistent(&d);
    }

    #[test]
    fn inserting_final_clique_edge_jumps_multiple_levels() {
        // K6 minus one edge, then insert it: the new edge must reach κ = 4
        // (4 activations, each promoting it one level).
        let mut g = generators::complete(6);
        g.remove_edge_between(VertexId(0), VertexId(1)).unwrap();
        let mut d = DynamicTriangleKCore::new(g);
        let e = d.insert_edge(VertexId(0), VertexId(1)).unwrap();
        assert_eq!(d.kappa(e), 4);
        assert!(d.graph().edge_ids().all(|x| d.kappa(x) == 4));
        assert_consistent(&d);
    }

    #[test]
    fn removing_clique_edge_demotes_whole_clique() {
        let g = generators::complete(6);
        let mut d = DynamicTriangleKCore::new(g);
        d.remove_edge_between(VertexId(0), VertexId(1)).unwrap();
        assert_consistent(&d);
        // K6 minus an edge: edges not touching 0 or 1 still have κ = 3
        // (K4 on {2,3,4,5} extended); all edges drop from 4 to 3.
        for e in d.graph().edge_ids() {
            assert_eq!(d.kappa(e), 3);
        }
    }

    #[test]
    fn removal_with_dying_triangles_at_two_levels() {
        // K5 on {0..4} (κ = 3) plus a tail: 5 closes {0, 1, 5} and 6
        // closes {0, 5, 6}, so κ(0-5) = κ(1-5) = 1. Removing 0-1 kills
        // three triangles at μ = 3 and one at μ = 1: two level cascades.
        let g = Graph::from_edges(
            7,
            generators::complete(5)
                .edges()
                .map(|(_, u, v)| (u.0, v.0))
                .chain([(0, 5), (1, 5), (0, 6), (5, 6)]),
        );
        let mut d = DynamicTriangleKCore::new(g);
        let k = |d: &DynamicTriangleKCore, u: u32, v: u32| {
            d.kappa(d.graph().edge_between(VertexId(u), VertexId(v)).unwrap())
        };
        let e = d.graph().edge_between(VertexId(0), VertexId(1)).unwrap();
        let mut mus = Vec::new();
        d.graph().for_each_triangle_on_edge(e, |_, a, b| {
            mus.push(d.kappa(e).min(d.kappa(a)).min(d.kappa(b)));
        });
        mus.sort_unstable();
        mus.dedup();
        assert_eq!(mus, [1, 3]);
        let before = d.kappa_slice().to_vec();

        d.remove_edge(e).unwrap();
        assert_consistent(&d);
        // Level 3: the other nine K5 edges drop to 2. Level 1: 1-5 loses
        // its only triangle; 0-5 keeps {0, 5, 6}.
        assert_eq!(k(&d, 2, 3), 2);
        assert_eq!(k(&d, 0, 2), 2);
        assert_eq!(k(&d, 1, 5), 0);
        assert_eq!(k(&d, 0, 5), 1);
        for f in d.graph().edge_ids() {
            assert!(before[f.index()] - d.kappa(f) <= 1);
        }
        // Ten demotions; the removed edge itself is never demoted.
        assert_eq!(d.stats().demotions, 10);
        assert_eq!(d.stats().triangles_removed, 4);
    }

    #[test]
    fn stats_track_work() {
        let mut d = DynamicTriangleKCore::new(generators::complete(5));
        assert_eq!(d.stats(), UpdateStats::default());
        d.remove_edge_between(VertexId(0), VertexId(1)).unwrap();
        let s = d.stats();
        assert_eq!(s.triangles_removed, 3);
        assert!(s.demotions > 0);
        d.reset_stats();
        assert_eq!(d.stats(), UpdateStats::default());
    }

    #[test]
    fn absorb_is_fieldwise_addition_with_default_identity() {
        let a = UpdateStats {
            triangles_added: 3,
            triangles_removed: 1,
            promotions: 7,
            demotions: 2,
            edges_examined: 40,
        };
        let b = UpdateStats {
            triangles_added: 10,
            triangles_removed: 20,
            promotions: 30,
            demotions: 40,
            edges_examined: 50,
        };
        let mut sum = a;
        sum.absorb(b);
        assert_eq!(
            sum,
            UpdateStats {
                triangles_added: 13,
                triangles_removed: 21,
                promotions: 37,
                demotions: 42,
                edges_examined: 90,
            }
        );
        // Absorbing the default is the identity; absorbing into the
        // default is a copy — the two laws the engine's cumulative
        // counters rely on when draining per-batch stats.
        let mut id = sum;
        id.absorb(UpdateStats::default());
        assert_eq!(id, sum);
        let mut fresh = UpdateStats::default();
        fresh.absorb(b);
        assert_eq!(fresh, b);
    }

    #[test]
    fn reset_drains_counters_for_cumulative_absorb() {
        // The drain pattern: absorb(stats()) + reset_stats() after each
        // batch must accumulate exactly the same totals as never resetting.
        let mut d = DynamicTriangleKCore::new(generators::complete(5));
        let mut undrained = DynamicTriangleKCore::new(generators::complete(5));
        let mut cumulative = UpdateStats::default();
        let script = [
            BatchOp::Remove(VertexId(0), VertexId(1)),
            BatchOp::Insert(VertexId(0), VertexId(1)),
            BatchOp::Remove(VertexId(2), VertexId(3)),
        ];
        for op in script {
            d.apply_batch([op]);
            cumulative.absorb(d.stats());
            d.reset_stats();
            assert_eq!(d.stats(), UpdateStats::default());
            undrained.apply_batch([op]);
        }
        assert_eq!(cumulative, undrained.stats());
    }

    #[test]
    fn batch_skips_duplicates_and_missing() {
        let mut d = DynamicTriangleKCore::new(generators::path(4));
        let (ins, del) = d.apply_batch([
            BatchOp::Insert(VertexId(0), VertexId(2)),
            BatchOp::Insert(VertexId(0), VertexId(2)), // dup
            BatchOp::Insert(VertexId(1), VertexId(1)), // self loop
            BatchOp::Remove(VertexId(0), VertexId(3)), // missing
            BatchOp::Remove(VertexId(0), VertexId(1)),
        ]);
        assert_eq!((ins, del), (1, 1));
        assert_consistent(&d);
    }

    #[test]
    fn growing_vertex_set() {
        let mut d = DynamicTriangleKCore::new(generators::complete(3));
        d.add_vertices(1);
        d.insert_edge(VertexId(0), VertexId(3)).unwrap();
        d.insert_edge(VertexId(1), VertexId(3)).unwrap();
        d.insert_edge(VertexId(2), VertexId(3)).unwrap();
        assert_consistent(&d);
        assert!(d.graph().edge_ids().all(|e| d.kappa(e) == 2));
    }

    #[test]
    fn deterministic_scripted_churn_stays_consistent() {
        // A scripted mix of insertions and deletions over a seeded graph,
        // checking the oracle after every operation.
        let g = generators::gnp(18, 0.18, 42);
        let mut d = DynamicTriangleKCore::new(g);
        let mut rng_state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 33) as u32
        };
        for step in 0..200 {
            let u = VertexId(next() % 18);
            let v = VertexId(next() % 18);
            if u == v {
                continue;
            }
            if d.graph().has_edge(u, v) {
                d.remove_edge_between(u, v).unwrap();
            } else {
                d.insert_edge(u, v).unwrap();
            }
            assert_consistent(&d);
            let _ = step;
        }
    }

    #[test]
    fn from_parts_roundtrip() {
        let g = generators::planted_partition(2, 6, 0.9, 0.1, 3);
        let kappa = triangle_kcore_decomposition(&g).into_kappa();
        let mut d = DynamicTriangleKCore::from_parts(g, kappa);
        d.insert_edge(VertexId(0), VertexId(11)).ok();
        assert_consistent(&d);
        let (g, kappa) = d.into_parts();
        assert_eq!(kappa.len(), g.edge_bound().max(kappa.len()));
    }

    #[test]
    fn vertex_departure_maintains_kappa() {
        // A K6 member leaves: the rest drop from κ=4 to κ=3.
        let mut d = DynamicTriangleKCore::new(generators::complete(6));
        let removed = d.isolate_vertex(VertexId(0));
        assert_eq!(removed, 5);
        assert_consistent(&d);
        for e in d.graph().edge_ids() {
            assert_eq!(d.kappa(e), 3);
        }
    }

    #[test]
    fn insert_into_triangle_free_region_is_cheap() {
        let mut d = DynamicTriangleKCore::new(generators::path(10));
        let e = d.insert_edge(VertexId(0), VertexId(9)).unwrap();
        assert_eq!(d.kappa(e), 0);
        assert_eq!(d.stats().triangles_added, 0);
        assert_consistent(&d);
    }
}
