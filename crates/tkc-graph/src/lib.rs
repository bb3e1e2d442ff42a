//! # tkc-graph — graph substrate for the Triangle K-Core suite
//!
//! A dynamic undirected simple graph with **stable edge identifiers**,
//! sorted-adjacency triangle enumeration, classic generators and edge-list
//! I/O. This is the foundation every other crate in the workspace builds
//! on; see the workspace `DESIGN.md` for how it maps onto the ICDE 2012
//! Triangle K-Core paper.
//!
//! ## Quick tour
//!
//! ```
//! use tkc_graph::{generators, triangles, Graph, VertexId};
//!
//! // A scale-free, highly-clustered graph like the paper's co-authorship data.
//! let g = generators::holme_kim(200, 3, 0.7, 42);
//! let tri = triangles::triangle_count(&g);
//! assert!(tri > 0);
//!
//! // Dynamic edits keep edge ids stable.
//! let mut g = Graph::from_edges(3, [(0, 1), (1, 2)]);
//! let e = g.add_edge(VertexId(0), VertexId(2)).unwrap();
//! assert_eq!(g.triangles_on_edge(e), 1);
//! ```

// Graph-substrate kernels (CSR, triangles, cliques) index with
// structurally-bounded ids; the tkc-analyze panic-surface lint audits the
// non-kernel files of this crate individually. See DESIGN.md §11.
#![allow(clippy::indexing_slicing, clippy::expect_used)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod cliques;
pub mod components;
pub mod csr;
pub mod error;
pub mod generators;
pub mod generators_ext;
pub mod hash;
pub mod io;
pub mod peel_csr;
pub mod pool;
pub mod triangles;

mod graph;
mod ids;

pub use adjacency::AdjacencySource;
pub use csr::CsrGraph;
pub use error::{GraphError, ParseError};
pub use graph::Graph;
pub use hash::{FxHashMap, FxHashSet};
pub use ids::{EdgeId, VertexId};
pub use pool::WorkerPool;
