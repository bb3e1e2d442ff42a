#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! Bench: the triangle substrate — support computation, counting, and the
//! stored vs streaming decomposition tradeoff of §IV-A (production peels
//! over stored triangles; the bucket-peel oracle re-intersects adjacency).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tkc_core::decompose::triangle_kcore_decomposition;
use tkc_datasets::DatasetId;
use tkc_graph::triangles::{edge_supports, triangle_count};

fn bench_triangles(c: &mut Criterion) {
    let mut group = c.benchmark_group("triangles");
    for (id, scale) in [(DatasetId::Ppi, 0.5), (DatasetId::AstroAuthor, 0.1)] {
        let g = tkc_datasets::build(id, scale, 42);
        let name = format!("{}_{}e", id.info().name, g.num_edges());
        group.bench_with_input(BenchmarkId::new("edge_supports", &name), &g, |b, g| {
            b.iter(|| edge_supports(g))
        });
        group.bench_with_input(
            BenchmarkId::new("edge_supports_parallel", &name),
            &g,
            |b, g| b.iter(|| tkc_graph::csr::edge_supports_csr_parallel(g, 0)),
        );
        group.bench_with_input(BenchmarkId::new("triangle_count", &name), &g, |b, g| {
            b.iter(|| triangle_count(g))
        });
        group.bench_with_input(
            BenchmarkId::new("decompose_streaming", &name),
            &g,
            |b, g| b.iter(|| tkc_verify::bucket::kappa(g)),
        );
        group.bench_with_input(BenchmarkId::new("decompose_stored", &name), &g, |b, g| {
            b.iter(|| triangle_kcore_decomposition(g))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_triangles
}
criterion_main!(benches);
