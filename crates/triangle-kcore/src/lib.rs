//! # triangle-kcore — the full suite behind one import
//!
//! A production-quality reproduction of *"Extracting Analyzing and
//! Visualizing Triangle K-Core Motifs within Networks"* (Zhang &
//! Parthasarathy, ICDE 2012). A **Triangle K-Core** is a subgraph in which
//! every edge participates in at least `k` triangles — a tractable proxy
//! for clique structure (in modern terminology, the `k`-truss with an
//! off-by-two naming). The suite provides:
//!
//! * [`graph`] — the dynamic graph substrate (stable edge ids, triangle
//!   enumeration, generators, I/O);
//! * [`core`] — Algorithm 1 (static decomposition), Algorithms 2/5/6/7
//!   (incremental maintenance), core extraction, vertex K-Core;
//! * [`baselines`] — CSV and DN-Graph (TriDN/BiTriDN) competitors;
//! * [`viz`] — CSV-style density plots, dual-view plots, SVG/TSV output;
//! * [`patterns`] — template pattern cliques (New Form / Bridge /
//!   New Join / custom) over attributed evolving or labeled graphs;
//! * [`datasets`] — deterministic synthetic stand-ins for the paper's ten
//!   evaluation graphs and its case-study scenarios.
//!
//! ## Quickstart
//!
//! ```
//! use triangle_kcore::prelude::*;
//!
//! // Build a graph, decompose it, and read off the clique proxy.
//! let g = generators::connected_caveman(3, 6); // three welded 6-cliques
//! let decomp = triangle_kcore_decomposition(&g);
//! assert_eq!(decomp.max_kappa(), 4); // 6-clique → κ = 6 - 2
//!
//! // Maintain κ under change instead of recomputing.
//! let mut live = DynamicTriangleKCore::new(g);
//! let e = live.insert_edge(VertexId(0), VertexId(8)).unwrap();
//! assert_eq!(live.kappa(e), 1); // one triangle across the weld
//! ```

// Facade crate: re-exports plus doctest-heavy examples where a panic is
// the example failing. See DESIGN.md §11.
#![allow(clippy::indexing_slicing, clippy::expect_used)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use tkc_baselines as baselines;
pub use tkc_core as core;
pub use tkc_datasets as datasets;
pub use tkc_graph as graph;
pub use tkc_patterns as patterns;
pub use tkc_viz as viz;

/// One-stop import for the common API surface.
pub mod prelude {
    pub use tkc_core::decompose::{triangle_kcore_decomposition, Decomposition};
    pub use tkc_core::dynamic::{BatchOp, DynamicTriangleKCore, UpdateStats};
    pub use tkc_core::extract::{
        communities_of_vertex, core_hierarchy, cores_at_level, densest_cliques, kappa_stats,
        maximum_core_of_edge, Core, KappaStats,
    };
    pub use tkc_core::kcore::core_numbers;
    pub use tkc_core::persist::{read_kappa, write_kappa};
    pub use tkc_graph::{generators, io, triangles, EdgeId, Graph, VertexId};
    pub use tkc_patterns::{
        detect_events, detect_template, AttributedGraph, BridgeClique, CustomTemplate, Event,
        EventOptions, NewFormClique, NewJoinClique, Template,
    };
    pub use tkc_viz::{
        ascii_sparkline, density_order, dual_view, kappa_density_plot, render_density_plot,
        DensityPlot, PlotStyle,
    };
}
