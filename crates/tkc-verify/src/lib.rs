//! # tkc-verify — independent correctness layer for the Triangle K-Core suite
//!
//! The paper's headline claims are *correctness* claims: Algorithm 1
//! computes κ(e) exactly, and the maintenance algorithms keep the same κ
//! under edge insertion/deletion. This crate makes those claims
//! mechanically checkable, with no shared code paths with the
//! implementations it audits:
//!
//! * [`bucket`] — the paper's one-edge-at-a-time bucket peel, kept as
//!   the reference the production level-synchronous peel is compared
//!   against;
//! * [`certificate`] — [`certificate::KappaCertificate`] verifies any
//!   claimed κ vector against Definitions 3/4 using its own
//!   sorted-adjacency triangle counting and an independent peeling replay,
//!   reporting structured [`certificate::Violation`]s;
//! * [`differential`] — a seeded op-stream harness that checks the dynamic
//!   maintainer against a from-scratch recompute (and optionally the naive
//!   definitional oracle plus the certificate checker) after every batch,
//!   shrinking failures to minimal ready-to-paste reproductions;
//! * [`extraction`] — the BFS reference for Triangle K-Core extraction
//!   and [`extraction::check_core_extraction`], which holds the production
//!   kernel's cores and the per-level truss table's counts to it at every
//!   level.
//!
//! ```
//! use tkc_core::decompose::triangle_kcore_decomposition;
//! use tkc_graph::generators;
//! use tkc_verify::certificate::KappaCertificate;
//!
//! let g = generators::complete(6);
//! let d = triangle_kcore_decomposition(&g);
//! KappaCertificate::new(&g, d.kappa_slice()).check().expect("K6 verifies");
//!
//! // A corrupted vector is rejected with a pinpointed violation.
//! let mut bad = d.into_kappa();
//! bad[0] += 1;
//! assert!(KappaCertificate::new(&g, &bad).check().is_err());
//! ```

// Oracle crate: differential checks *want* to fail loudly — a panic is
// the test failure report. See DESIGN.md §11.
#![allow(clippy::indexing_slicing, clippy::expect_used)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bucket;
pub mod certificate;
pub mod differential;
pub mod extraction;

pub use certificate::{KappaCertificate, Report, Violation};
pub use differential::{
    kappa_matches_recompute, kappa_stamp, run_stream, run_suite, FailureDump, StreamConfig,
    StreamStats,
};
pub use extraction::{check_core_extraction, triangle_connected_components_bfs};
