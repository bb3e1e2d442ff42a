//! The bucket-peel oracle: Algorithm 1 exactly as the paper writes it,
//! one edge at a time off a bucket queue.
//!
//! Production decomposes with the level-synchronous peel
//! ([`tkc_core::peel_parallel`]), which batches every minimum-support
//! edge into one frontier. This module keeps the classic in-memory peel
//! (Batagelj–Zaversnik bucket layout, as in Wang & Cheng's truss
//! decomposition) as the reference the differential suites, the property
//! tests and `bench_snapshot`'s `decompose_seq` row compare against. It
//! shares no peel code with production: triangles are re-intersected
//! from the mutable adjacency on every pop.
//!
//! The bucket-sort layout the paper recommends (step 7 footnote): a
//! counting-sorted edge array plus per-bucket start indices gives O(1)
//! "decrement support and re-sort" (step 16), for an overall cost of
//! `O(|E| + Σ_e min(deg u, deg v))`.

use tkc_graph::{EdgeId, Graph};

/// κ of every edge by the bucket peel, with supports from the
/// mutable-adjacency kernel ([`tkc_graph::triangles::edge_supports`]).
/// Indexed by raw edge id; dead slots read 0.
pub fn kappa(g: &Graph) -> Vec<u32> {
    peel(g, tkc_graph::triangles::edge_supports(g))
}

/// The peel loop of Algorithm 1 (steps 7–17) given precomputed initial
/// supports `sup` (raw edge-id indexed). Returns κ, indexed the same way.
///
/// Debug builds assert the bucket-queue invariants on every pop: no edge
/// pops twice, popped supports never fall below the current level, and
/// the position table tracks every swap.
pub fn peel(g: &Graph, mut sup: Vec<u32>) -> Vec<u32> {
    let bound = g.edge_bound();
    let m = g.num_edges();
    let mut kappa = vec![0u32; bound];
    if m == 0 {
        return kappa;
    }

    // Counting sort of live edges by support (paper step 7).
    let max_sup = g.edge_ids().map(|e| sup[e.index()]).max().unwrap_or(0) as usize;
    let mut bin = vec![0usize; max_sup + 2];
    for e in g.edge_ids() {
        bin[sup[e.index()] as usize] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut sorted: Vec<EdgeId> = vec![EdgeId(0); m];
    let mut pos = vec![usize::MAX; bound];
    {
        let mut cursor = bin.clone();
        for e in g.edge_ids() {
            let s = sup[e.index()] as usize;
            pos[e.index()] = cursor[s];
            sorted[cursor[s]] = e;
            cursor[s] += 1;
        }
    }

    let mut processed = vec![false; bound];
    let mut level = 0u32;

    for i in 0..m {
        let e = sorted[i];
        let k = sup[e.index()];
        debug_assert!(
            !processed[e.index()],
            "processing-order violation: edge {} popped twice",
            e.index()
        );
        debug_assert!(
            k >= level,
            "bucket-queue monotonicity violation: popped support {k} below current level {level}"
        );
        debug_assert_eq!(
            pos[e.index()],
            i,
            "bucket position table out of sync at pop"
        );
        kappa[e.index()] = k;
        level = level.max(k);
        processed[e.index()] = true;
        // Advance the bucket cursor for value k past this element so later
        // decrements into bucket k land after position i.
        bin[k as usize] = i + 1;
        // Steps 10-17: every *unprocessed* triangle on e (both other edges
        // unprocessed) may no longer support a higher core for its other
        // edges; decrement their upper bounds.
        g.for_each_triangle_on_edge(e, |_, e1, e2| {
            if processed[e1.index()] || processed[e2.index()] {
                return; // triangle already processed (step 17)
            }
            for x in [e1, e2] {
                let sx = sup[x.index()];
                if sx > k {
                    // O(1) re-sort: swap x with the first element of its
                    // bucket, advance the bucket start, decrement.
                    let px = pos[x.index()];
                    let pw = bin[sx as usize];
                    let w = sorted[pw];
                    debug_assert_eq!(
                        sorted[px], x,
                        "bucket position table out of sync before swap"
                    );
                    debug_assert!(pw > i, "bucket start points at an already-processed slot");
                    if x != w {
                        sorted[px] = w;
                        sorted[pw] = x;
                        pos[w.index()] = px;
                        pos[x.index()] = pw;
                    }
                    bin[sx as usize] += 1;
                    sup[x.index()] = sx - 1;
                }
            }
        });
    }
    kappa
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkc_core::decompose::Decomposition;
    use tkc_core::reference::naive_kappa;
    use tkc_graph::generators;

    #[test]
    fn matches_the_definitional_oracle_and_production() {
        let mut churned = generators::complete(6);
        let dead = churned.edge_ids().nth(3).expect("K6 has edges");
        churned.remove_edge(dead).expect("live edge");
        for g in [
            generators::complete(7),
            generators::gnp(40, 0.2, 3),
            generators::holme_kim(200, 3, 0.6, 1),
            generators::connected_caveman(4, 6),
            generators::path(5),
            Graph::new(),
            churned,
        ] {
            let oracle = kappa(&g);
            assert_eq!(oracle, naive_kappa(&g));
            assert_eq!(oracle, Decomposition::compute_with(&g, 2).into_kappa());
        }
    }
}
