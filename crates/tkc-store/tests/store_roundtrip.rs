#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! End-to-end store coverage: pack → open → paged reads and bulk loads
//! must reproduce the source graph exactly (dead slots included), on
//! generator graphs and on proptest-random edge sets.

use proptest::prelude::*;
use tkc_graph::adjacency::AdjacencySource;
use tkc_graph::csr::edge_supports_csr;
use tkc_graph::{generators, EdgeId, Graph, VertexId};
use tkc_store::{pack_graph, PageCacheConfig, StoreReader};

fn temp_store(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tkc_store_roundtrip_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Packs `g` (with computed supports and a synthetic κ), reopens it, and
/// checks every read surface against the in-memory graph.
fn assert_roundtrip(g: &Graph, name: &str, config: PageCacheConfig) {
    let sup = edge_supports_csr(g);
    let kappa: Vec<u32> = sup.iter().map(|&s| s / 2 + 1).collect();
    let parts = pack_graph(g, &sup, Some(&kappa)).unwrap();
    let path = temp_store(name);
    let written = parts.write_path(&path).unwrap();
    assert_eq!(written, std::fs::metadata(&path).unwrap().len());

    let r = StoreReader::open(&path, config).unwrap();
    r.verify_checksums().unwrap();
    assert_eq!(r.num_vertices(), g.num_vertices());
    assert_eq!(StoreReader::num_edges(&r), g.num_edges());
    assert_eq!(StoreReader::edge_bound(&r), g.edge_bound());
    assert!(r.has_kappa());

    // Paged adjacency matches the mutable graph's sorted lists.
    let mut list = Vec::new();
    for v in 0..g.num_vertices() as u32 {
        r.neighbors(v, &mut list).unwrap();
        let expect: Vec<(u32, EdgeId)> = g
            .adjacency(VertexId(v))
            .iter()
            .map(|&(w, e)| (w.0, e))
            .collect();
        assert_eq!(list, expect, "{name}: adjacency of {v}");
    }

    // Paged per-edge lookups: endpoints, supports, κ, dead slots.
    for i in 0..g.edge_bound() as u32 {
        let want = g.endpoints_checked(EdgeId(i)).map(|(u, v)| (u.0, v.0));
        assert_eq!(r.endpoints(i).unwrap(), want, "{name}: endpoints of e{i}");
        if want.is_some() {
            assert_eq!(r.support(i).unwrap(), sup[i as usize]);
            assert_eq!(r.kappa_at(i).unwrap(), kappa[i as usize]);
        }
    }

    // Bulk loads reproduce the state vectors and the graph itself.
    assert_eq!(r.read_supports().unwrap(), sup);
    assert_eq!(r.read_kappa().unwrap(), kappa);
    let back = r.load_graph().unwrap();
    back.check_invariants().unwrap();
    assert_eq!(back.num_vertices(), g.num_vertices());
    assert_eq!(back.num_edges(), g.num_edges());
    assert_eq!(back.edge_bound(), g.edge_bound());
    for (e, u, v) in g.edges() {
        assert_eq!(back.endpoints_checked(e), Some((u, v)), "{name}: edge {e}");
    }

    // The AdjacencySource view agrees with neighbors().
    assert_eq!(AdjacencySource::num_lists(&r), g.num_vertices());
    let mut via_trait = Vec::new();
    for v in 0..g.num_vertices() as u32 {
        AdjacencySource::read_list(&r, v, &mut via_trait).unwrap();
        r.neighbors(v, &mut list).unwrap();
        assert_eq!(via_trait, list);
    }

    // Compression: varint adjacency beats the raw flat arrays on any
    // graph with locality.
    let info = r.info();
    assert!(info.file_bytes > 0);
    assert_eq!(info.num_edges, g.num_edges());
}

fn churn(g: &mut Graph, step: usize) {
    let victims: Vec<EdgeId> = g.edge_ids().step_by(step.max(2)).collect();
    for e in victims {
        g.remove_edge(e).unwrap();
    }
}

#[test]
fn generator_graphs_roundtrip() {
    let mut hk = generators::holme_kim(250, 3, 0.6, 11);
    churn(&mut hk, 3);
    // Re-add a couple of edges so some freed slots are live again.
    hk.try_add_edge(VertexId(0), VertexId(200));
    hk.try_add_edge(VertexId(5), VertexId(199));
    let cases = [
        ("complete.tkcstor", generators::complete(9)),
        ("star.tkcstor", generators::star(40)),
        ("churned.tkcstor", hk),
        (
            "planted.tkcstor",
            generators::planted_partition(3, 12, 0.7, 0.08, 5),
        ),
    ];
    for (name, g) in &cases {
        assert_roundtrip(g, name, PageCacheConfig::default());
    }
}

#[test]
fn tiny_page_cache_still_reads_correctly() {
    // 64-byte pages, 2 resident: every list read crosses pages and
    // evicts constantly; results must be identical.
    let g = generators::holme_kim(120, 3, 0.7, 23);
    assert_roundtrip(
        &g,
        "tiny_cache.tkcstor",
        PageCacheConfig {
            page_size: 64,
            capacity: 2,
        },
    );
}

#[test]
fn empty_and_edgeless_graphs_roundtrip() {
    assert_roundtrip(&Graph::new(), "empty.tkcstor", PageCacheConfig::default());
    let mut g = Graph::new();
    g.add_vertices(17);
    assert_roundtrip(&g, "isolated.tkcstor", PageCacheConfig::default());
    // A graph where every edge was removed: all slots dead.
    let mut g = generators::complete(5);
    let all: Vec<EdgeId> = g.edge_ids().collect();
    for e in all {
        g.remove_edge(e).unwrap();
    }
    assert_roundtrip(&g, "all_dead.tkcstor", PageCacheConfig::default());
}

#[test]
fn cache_counters_track_traffic() {
    let g = generators::holme_kim(200, 3, 0.6, 3);
    let sup = vec![0u32; g.edge_bound()];
    let parts = pack_graph(&g, &sup, None).unwrap();
    let path = temp_store("counters.tkcstor");
    parts.write_path(&path).unwrap();
    let r = StoreReader::open(
        &path,
        PageCacheConfig {
            page_size: 256,
            capacity: 4,
        },
    )
    .unwrap();
    let mut out = Vec::new();
    for v in 0..g.num_vertices() as u32 {
        r.neighbors(v, &mut out).unwrap();
    }
    let stats = r.cache_stats();
    assert!(stats.misses > 0, "paged reads must fault pages in");
    assert!(stats.hits > 0, "sequential OFFS reads must hit");
    assert!(r.cache_resident_bytes() <= 4 * 256);
    assert!(!r.has_kappa());
    assert!(matches!(
        r.read_kappa(),
        Err(tkc_store::StoreError::MissingSection(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The varint codec round-trips arbitrary values and arbitrary
    /// ascending lists exactly.
    #[test]
    fn varint_codec_roundtrips(values in collection::vec(0u64..u64::MAX, 0..64), gaps in collection::vec(1u32..10_000, 0..64)) {
        use tkc_store::varint::{decode_delta_list, decode_u64, encode_delta_list, encode_u64};
        let mut buf = Vec::new();
        for &v in &values {
            encode_u64(&mut buf, v);
        }
        let mut at = 0usize;
        for &v in &values {
            let (back, next) = decode_u64(&buf, at).unwrap();
            prop_assert_eq!(back, v);
            at = next;
        }
        prop_assert_eq!(at, buf.len());

        // Ascending list via cumulative gaps.
        let mut list = Vec::new();
        let mut acc = 0u64;
        for &g in &gaps {
            acc += u64::from(g);
            if acc > u64::from(u32::MAX) {
                break;
            }
            list.push(acc as u32);
        }
        let mut delta = Vec::new();
        encode_delta_list(&mut delta, &list);
        let mut back = Vec::new();
        decode_delta_list(&delta, 0, delta.len(), |v| back.push(v)).unwrap();
        prop_assert_eq!(back, list);
    }

    /// Random sparse edge sets with random deletions (dead slots) and
    /// re-insertions (recycled slots) round-trip bit-exactly.
    #[test]
    fn random_graphs_roundtrip(n in 2usize..60, edges in collection::vec((0u32..60, 0u32..60), 0..160), kill in 0usize..7) {
        let mut g = Graph::new();
        g.add_vertices(n);
        for &(a, b) in &edges {
            let (a, b) = (a % n as u32, b % n as u32);
            if a != b {
                let _ = g.try_add_edge(VertexId(a), VertexId(b));
            }
        }
        if kill > 1 {
            churn(&mut g, kill);
        }
        // Recycle a few slots.
        for &(a, b) in edges.iter().take(4) {
            let (a, b) = (a % n as u32, b % n as u32);
            if a != b {
                let _ = g.try_add_edge(VertexId(a), VertexId(b));
            }
        }
        assert_roundtrip(&g, "prop.tkcstor", PageCacheConfig { page_size: 128, capacity: 3 });
    }
}

/// The replication position survives pack → disk → open, defaults to
/// zero, and is covered by the header crc.
#[test]
fn seq_and_term_roundtrip_through_disk() {
    let g = generators::connected_caveman(3, 5);
    let supports = edge_supports_csr(&g);
    let path = temp_store("position.tkcstor");

    pack_graph(&g, &supports, None)
        .unwrap()
        .write_path(&path)
        .unwrap();
    let r = StoreReader::open(&path, PageCacheConfig::default()).unwrap();
    assert_eq!((r.seq(), r.term()), (0, 0), "pack_graph leaves zeros");

    pack_graph(&g, &supports, None)
        .unwrap()
        .with_position(7, 3)
        .write_path(&path)
        .unwrap();
    let r = StoreReader::open(&path, PageCacheConfig::default()).unwrap();
    assert_eq!((r.seq(), r.term()), (7, 3));
    assert_eq!(r.load_graph().unwrap().num_edges(), g.num_edges());

    // A flipped seq byte fails the header crc.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[40] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        StoreReader::open(&path, PageCacheConfig::default()),
        Err(tkc_store::StoreError::Checksum { part: "header" })
    ));
    std::fs::remove_file(&path).ok();
}
