//! # tkc-core — Triangle K-Core decomposition and maintenance
//!
//! The primary contribution of *"Extracting Analyzing and Visualizing
//! Triangle K-Core Motifs within Networks"* (ICDE 2012):
//!
//! * [`decompose`] — Algorithm 1: κ(e) for every edge, one entry point
//!   at every thread count, linear in the number of triangles;
//! * [`dynamic`] — Algorithms 2/5/6/7: incremental κ maintenance under
//!   edge insertions and deletions;
//! * [`extract`] — materializing maximum Triangle K-Cores, level sets,
//!   hierarchies, and exact cliques;
//! * [`peel_parallel`] — the level-synchronous peel behind every
//!   [`decompose`] entry point;
//! * [`kcore`] — the classic vertex K-Core (\[21\]) the motif generalizes;
//! * [`ooc`] — the out-of-core stratum peel over a packed `tkc-store`
//!   file, for graphs larger than memory;
//! * [`persist`] — save/load κ vectors across processes;
//! * [`mod@reference`] — naive definitional oracles used by the test suite.
//!
//! ```
//! use tkc_graph::{generators, VertexId};
//! use tkc_core::prelude::*;
//!
//! // Static decomposition...
//! let g = generators::complete(6);
//! let d = triangle_kcore_decomposition(&g);
//! assert_eq!(d.max_kappa(), 4);
//!
//! // ...and incremental maintenance under change.
//! let mut m = DynamicTriangleKCore::new(g);
//! m.remove_edge_between(VertexId(0), VertexId(1)).unwrap();
//! assert!(m.graph().edge_ids().all(|e| m.kappa(e) == 3));
//! ```

// Kernel crate: peel/update hot loops index CSR arrays and bucket
// queues whose bounds are structural invariants (checked in debug and by
// the tkc-verify oracle). The strict panic-surface wall (deny) applies to
// tkc-engine; here checked access would cost the inner loops. See
// DESIGN.md §11 and analyze.toml.
#![allow(clippy::indexing_slicing, clippy::expect_used)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod decompose;
pub mod dynamic;
pub mod extract;
pub mod kcore;
pub mod ooc;
pub mod peel_parallel;
pub mod persist;
pub mod reference;

/// Convenient glob import of the main types and entry points.
pub mod prelude {
    pub use crate::decompose::{triangle_kcore_decomposition, Decomposition};
    pub use crate::dynamic::{BatchOp, DynamicTriangleKCore, UpdateStats};
    pub use crate::extract::{
        core_hierarchy, cores_at_level, densest_cliques, maximum_core_of_edge, vertex_density, Core,
    };
    pub use crate::kcore::core_numbers;
}
