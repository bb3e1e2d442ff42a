//! # tkc-store — the out-of-core compressed graph store
//!
//! Everything above this crate rebuilds the full graph and its CSR in
//! memory before doing anything, so the largest graph the suite can
//! decompose or serve is bounded by RAM and engine startup is
//! O(rebuild). This crate breaks that wall with a frozen on-disk form of
//! a graph snapshot (*Truss Decomposition in Massive Networks*, Wang &
//! Cheng, is the playbook — keep the graph on disk, page in what the
//! current peel stratum needs):
//!
//! * [`format`] — the versioned `TKCSTOR` file layout: a fixed
//!   little-endian header, a crc-checksummed section table, and
//!   crc-checksummed payload sections for per-vertex adjacency offsets,
//!   delta-varint compressed neighbor lists, varint edge ids, the
//!   edge-slot endpoint table, per-edge supports, and (optionally) κ.
//! * [`varint`] — the LEB128 codec and the delta encoding applied to
//!   ascending neighbor lists (a neighbor id costs ~1–2 bytes instead
//!   of 4 on realistic graphs).
//! * [`writer`] — packs a [`tkc_graph::Graph`] (plus supports / κ) into
//!   store bytes. Every byte reaches disk through the
//!   [`tkc_faults::WalStorage`] trait, one positioned write per section,
//!   so the fault-injection harness can corrupt any individual section
//!   deterministically.
//! * [`cache`] — an explicit LRU page cache over positioned file reads.
//!   The workspace carries `forbid(unsafe_code)`, so there is no mmap
//!   anywhere: paging is plain `seek` + `read_exact` into owned buffers,
//!   with configurable page size / capacity and hit/miss/eviction
//!   counters exported through tkc-obs.
//! * [`reader`] — [`StoreReader`], the paged random-access surface: the
//!   same `(neighbor, edge id)` iteration shape as the in-memory
//!   [`tkc_graph::CsrGraph`] (via [`tkc_graph::AdjacencySource`]), plus
//!   per-edge endpoint/support/κ lookups and checksummed full-section
//!   loads for the engine's fast reopen path.
//!
//! The out-of-core decomposition itself lives in `tkc-core::ooc`; this
//! crate stops at the storage layer on purpose so the engine, the CLI,
//! and the bench harness can all share it without cycles.

// The reader path is on the analyze.toml panic-surface strict list: no
// unwrap/expect/indexing outside tests — corrupt bytes must become
// structured `StoreError`s, never panics.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod crc;
pub mod format;
pub mod reader;
pub mod scratch;
pub mod varint;
pub mod writer;

pub use cache::{CacheStats, PageCacheConfig};
pub use format::{SectionTag, StoreError, StoreInfo, STORE_MAGIC, STORE_VERSION};
pub use reader::StoreReader;
pub use scratch::ScratchFile;
pub use writer::{pack_graph, StoreParts};
