#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! Integration: the extension layer — persistence, parallel counting,
//! community search, exact clique enumeration and event detection —
//! composed across crates on dataset-scale graphs.

use triangle_kcore::graph::cliques::maximal_cliques;
use triangle_kcore::graph::csr::{edge_supports_csr_parallel, triangle_count_csr_parallel};
use triangle_kcore::prelude::*;

#[test]
fn decompose_persist_reload_maintain() {
    // Full lifecycle: decompose → save κ → reload → maintain dynamically.
    let g = triangle_kcore::datasets::build(triangle_kcore::datasets::DatasetId::Ppi, 0.2, 4);
    let d = triangle_kcore_decomposition(&g);
    let mut buf = Vec::new();
    write_kappa(&g, &d, &mut buf).unwrap();
    let kappa = read_kappa(&g, buf.as_slice()).unwrap();

    let mut m = DynamicTriangleKCore::from_parts(g, kappa);
    let (dels, ins) = triangle_kcore::datasets::scenarios::churn_script(m.graph(), 0.02, 8);
    let ops: Vec<BatchOp> = dels
        .iter()
        .map(|&(u, v)| BatchOp::Remove(u, v))
        .chain(ins.iter().map(|&(u, v)| BatchOp::Insert(u, v)))
        .collect();
    m.apply_batch(ops);
    let fresh = triangle_kcore_decomposition(m.graph());
    for e in m.graph().edge_ids() {
        assert_eq!(m.kappa(e), fresh.kappa(e));
    }
}

#[test]
fn parallel_counting_matches_sequential_on_datasets() {
    let g = triangle_kcore::datasets::build(triangle_kcore::datasets::DatasetId::Wiki, 0.02, 5);
    let seq = triangle_kcore::graph::triangles::edge_supports(&g);
    assert_eq!(edge_supports_csr_parallel(&g, 4), seq);
    assert_eq!(
        triangle_count_csr_parallel(&g, 4),
        triangle_kcore::graph::triangles::triangle_count(&g)
    );
}

#[test]
fn community_search_tracks_planted_membership() {
    let mut g = generators::gnp(100, 0.03, 7);
    let planted = generators::plant_fresh_cliques(&mut g, 2, 7, 2, 7);
    let d = triangle_kcore_decomposition(&g);
    let member = planted[0][3];
    let comms = communities_of_vertex(&g, &d, member, 5);
    assert_eq!(comms.len(), 1);
    for v in &planted[0] {
        assert!(comms[0].vertices.contains(v));
    }
    // Stats reflect the planted density.
    let stats = kappa_stats(&g, &d);
    assert_eq!(stats.max_kappa, 5);
    assert!(stats.top_level_cores >= 1);
}

#[test]
fn exact_cliques_validate_the_proxy_on_ppi() {
    let g = triangle_kcore::datasets::build(triangle_kcore::datasets::DatasetId::Ppi, 0.15, 2);
    let d = triangle_kcore_decomposition(&g);
    let cliques = maximal_cliques(&g, 4);
    for c in &cliques {
        for (i, &u) in c.iter().enumerate() {
            for &v in &c[i + 1..] {
                let e = g.edge_between(u, v).unwrap();
                assert!(
                    d.kappa(e) + 2 >= c.len() as u32,
                    "proxy below witnessed clique"
                );
            }
        }
    }
    let biggest = cliques.iter().map(|c| c.len()).max().unwrap_or(0) as u32;
    assert!(biggest <= d.max_kappa() + 2);
}

#[test]
fn events_detected_on_collaboration_years() {
    // Two consecutive "years": carried teams continue, replaced teams
    // dissolve, new teams form.
    let (y1, y2) = triangle_kcore::datasets::collaboration::snapshot_pair(600, 350, 0.6, 12);
    let rep = detect_events(&y1, &y2, 2, &EventOptions::default());
    assert!(!rep.old_cores.is_empty());
    assert!(!rep.new_cores.is_empty());
    let mut kinds = [0usize; 4]; // stable-ish, dissolve, form, other
    for e in &rep.events {
        match e {
            Event::Continue { .. } | Event::Grow { .. } | Event::Shrink { .. } => kinds[0] += 1,
            Event::Dissolve { .. } => kinds[1] += 1,
            Event::Form { .. } => kinds[2] += 1,
            _ => kinds[3] += 1,
        }
    }
    assert!(kinds[0] > 0, "carried teams should continue");
    assert!(kinds[1] > 0, "replaced teams should dissolve");
    assert!(kinds[2] > 0, "new teams should form");
}

#[test]
fn subgraph_rendering_of_extracted_cores() {
    let (g, labels, members) = triangle_kcore::datasets::ppi::ppi_bridge_study(6);
    let svg = triangle_kcore::viz::render_structure(
        &g,
        &members,
        |e| {
            let (u, v) = g.endpoints(e);
            labels[u.index()] != labels[v.index()]
        },
        300,
    );
    assert!(svg.contains("#dc2626"), "inter-complex edges highlighted");
    assert_eq!(svg.matches("<circle").count(), members.len());
}
