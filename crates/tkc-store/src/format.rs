//! The `TKCSTOR` on-disk layout: header, section table, error type.
//!
//! Everything is little-endian and fixed-width so a reader can locate any
//! section with two small reads (no scan). The file is:
//!
//! ```text
//! ┌────────────────────────────┐ offset 0
//! │ header (64 bytes)          │  magic "TKCSTOR" + version u8,
//! │                            │  n/edge_bound/m u64, flags u32,
//! │                            │  section_count u32, seq/term u64,
//! │                            │  reserved u32,
//! │                            │  crc32(header[0..60]) u32
//! ├────────────────────────────┤ offset 64
//! │ section table              │  section_count × 24-byte entries:
//! │                            │  tag [u8;4], offset u64, len u64,
//! │                            │  crc32(payload) u32
//! │ table crc  u32             │  crc32(all entry bytes)
//! ├────────────────────────────┤
//! │ OFFS payload               │  (n+1) × (nbr_off u64, eid_off u64)
//! │ NBRS payload               │  per-vertex delta-varint neighbors
//! │ EIDS payload               │  per-vertex varint edge ids
//! │ EDGE payload               │  edge_bound × (u u32, v u32);
//! │                            │  dead slot = (MAX, MAX)
//! │ SUPP payload               │  edge_bound × support u32
//! │ KAPP payload (optional)    │  edge_bound × κ u32
//! └────────────────────────────┘
//! ```
//!
//! `OFFS[i]` holds byte offsets *relative to the NBRS / EIDS payload
//! starts*; vertex `i`'s lists occupy `nbr[OFFS[i].0 .. OFFS[i+1].0]` and
//! `eid[OFFS[i].1 .. OFFS[i+1].1]`. Every payload (and the header and
//! table themselves) is crc-checksummed; a reader validates the header
//! and table at open and each full-section load against its crc, and
//! [`crate::reader::StoreReader::verify_checksums`] streams all sections
//! for an end-to-end integrity pass.
//!
//! `seq` and `term` are the replication position the store covers: the
//! WAL sequence number of the last op folded into it (the floor later
//! WAL records count up from) and the fencing term of the node that
//! wrote it. Stores packed outside an engine carry zeros.

use std::fmt;
use std::io;

use crate::crc::crc32;

/// The 7-byte file magic, followed by the format version byte.
pub const STORE_MAGIC: &[u8; 7] = b"TKCSTOR";

/// Current format version. Version 2 added the header's `seq` and
/// `term`; version 1 stores are refused with
/// [`StoreError::UnsupportedVersion`].
pub const STORE_VERSION: u8 = 2;

/// Byte length of the fixed header.
pub const HEADER_LEN: usize = 64;

/// Byte length of one section-table entry.
pub const SECTION_ENTRY_LEN: usize = 24;

/// Header flag bit: the store carries a κ section.
pub const FLAG_HAS_KAPPA: u32 = 1;

/// Dead-slot sentinel in the EDGE section.
pub const DEAD_SLOT: u32 = u32::MAX;

/// The known section tags, in their canonical file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionTag {
    /// Per-vertex byte offsets into NBRS / EIDS.
    Offsets,
    /// Delta-varint neighbor lists.
    Neighbors,
    /// Varint edge-id lists, parallel to NBRS.
    EdgeIds,
    /// Edge-slot endpoint table (dead slots = sentinel pairs).
    Edges,
    /// Per-edge-slot triangle supports.
    Supports,
    /// Per-edge-slot κ values (optional).
    Kappa,
}

impl SectionTag {
    /// All tags in canonical file order.
    pub const ALL: [SectionTag; 6] = [
        SectionTag::Offsets,
        SectionTag::Neighbors,
        SectionTag::EdgeIds,
        SectionTag::Edges,
        SectionTag::Supports,
        SectionTag::Kappa,
    ];

    /// The 4-byte on-disk tag.
    pub fn bytes(self) -> [u8; 4] {
        match self {
            SectionTag::Offsets => *b"OFFS",
            SectionTag::Neighbors => *b"NBRS",
            SectionTag::EdgeIds => *b"EIDS",
            SectionTag::Edges => *b"EDGE",
            SectionTag::Supports => *b"SUPP",
            SectionTag::Kappa => *b"KAPP",
        }
    }

    /// Parses a 4-byte on-disk tag.
    pub fn parse(b: [u8; 4]) -> Option<SectionTag> {
        SectionTag::ALL.into_iter().find(|t| t.bytes() == b)
    }

    /// Human-readable tag name.
    pub fn name(self) -> &'static str {
        match self {
            SectionTag::Offsets => "OFFS",
            SectionTag::Neighbors => "NBRS",
            SectionTag::EdgeIds => "EIDS",
            SectionTag::Edges => "EDGE",
            SectionTag::Supports => "SUPP",
            SectionTag::Kappa => "KAPP",
        }
    }
}

impl fmt::Display for SectionTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Structured failure of any store operation. Corrupt bytes become one of
/// these — never a panic — so callers (engine startup, the CLI, CI
/// corruption tests) can distinguish "file missing" from "file lying".
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `TKCSTOR` magic.
    BadMagic,
    /// Known magic, unknown version byte.
    UnsupportedVersion(u8),
    /// A crc mismatch in the named part (`header`, `table`, or a section
    /// tag).
    Checksum {
        /// Which checksummed part failed.
        part: &'static str,
    },
    /// Structurally invalid contents (truncated section, bad varint,
    /// inconsistent offsets…) with a description of what broke.
    Corrupt(String),
    /// The caller asked for a section this store does not carry.
    MissingSection(SectionTag),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a TKCSTOR file (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported TKCSTOR version {v} (expected {STORE_VERSION})"
                )
            }
            StoreError::Checksum { part } => write!(f, "checksum mismatch in store {part}"),
            StoreError::Corrupt(why) => write!(f, "corrupt store: {why}"),
            StoreError::MissingSection(tag) => write!(f, "store has no {tag} section"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Parsed fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreHeader {
    /// Vertex count.
    pub num_vertices: u64,
    /// Exclusive upper bound on raw edge ids (dead slots included).
    pub edge_bound: u64,
    /// Live edge count.
    pub num_edges: u64,
    /// Flag bits ([`FLAG_HAS_KAPPA`]).
    pub flags: u32,
    /// Number of section-table entries that follow.
    pub section_count: u32,
    /// WAL sequence number the store covers through.
    pub seq: u64,
    /// Fencing term of the node that wrote the store.
    pub term: u64,
}

impl StoreHeader {
    /// True if the store carries a κ section.
    pub fn has_kappa(&self) -> bool {
        self.flags & FLAG_HAS_KAPPA != 0
    }

    /// Encodes the 64-byte header (crc included).
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        let mut buf = Vec::with_capacity(HEADER_LEN);
        buf.extend_from_slice(STORE_MAGIC);
        buf.push(STORE_VERSION);
        buf.extend_from_slice(&self.num_vertices.to_le_bytes());
        buf.extend_from_slice(&self.edge_bound.to_le_bytes());
        buf.extend_from_slice(&self.num_edges.to_le_bytes());
        buf.extend_from_slice(&self.flags.to_le_bytes());
        buf.extend_from_slice(&self.section_count.to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.term.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // reserved
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        out.copy_from_slice(&buf);
        out
    }

    /// Decodes and validates a 64-byte header. Magic and version are
    /// checked before the length and the crc, so a store of another
    /// version (whose header has another length) reports its version.
    pub fn decode(bytes: &[u8]) -> Result<StoreHeader, StoreError> {
        if bytes.get(..7) != Some(STORE_MAGIC.as_slice()) {
            return Err(StoreError::BadMagic);
        }
        let version = *bytes.get(7).ok_or(StoreError::BadMagic)?;
        if version != STORE_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let bytes: &[u8; HEADER_LEN] = bytes
            .get(..HEADER_LEN)
            .and_then(|b| b.try_into().ok())
            .ok_or(StoreError::Corrupt("header shorter than 64 bytes".into()))?;
        let (body, crc_bytes) = bytes.split_at(HEADER_LEN - 4);
        let stored = u32::from_le_bytes(
            crc_bytes
                .try_into()
                .map_err(|_| StoreError::Corrupt("header crc missing".into()))?,
        );
        if crc32(body) != stored {
            return Err(StoreError::Checksum { part: "header" });
        }
        let u64_at = |at: usize| -> Result<u64, StoreError> {
            body.get(at..at + 8)
                .and_then(|b| b.try_into().ok())
                .map(u64::from_le_bytes)
                .ok_or_else(|| StoreError::Corrupt("header field truncated".into()))
        };
        let u32_at = |at: usize| -> Result<u32, StoreError> {
            body.get(at..at + 4)
                .and_then(|b| b.try_into().ok())
                .map(u32::from_le_bytes)
                .ok_or_else(|| StoreError::Corrupt("header field truncated".into()))
        };
        Ok(StoreHeader {
            num_vertices: u64_at(8)?,
            edge_bound: u64_at(16)?,
            num_edges: u64_at(24)?,
            flags: u32_at(32)?,
            section_count: u32_at(36)?,
            seq: u64_at(40)?,
            term: u64_at(48)?,
        })
    }
}

/// One section-table entry: where a payload lives and what it must hash
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionDesc {
    /// Which section.
    pub tag: SectionTag,
    /// Absolute file offset of the payload.
    pub offset: u64,
    /// Payload byte length.
    pub len: u64,
    /// crc32 of the payload.
    pub crc: u32,
}

impl SectionDesc {
    /// Encodes the 24-byte table entry.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.tag.bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
    }

    /// Decodes one 24-byte table entry.
    pub fn decode(bytes: &[u8]) -> Result<SectionDesc, StoreError> {
        let entry = bytes
            .get(..SECTION_ENTRY_LEN)
            .ok_or_else(|| StoreError::Corrupt("section table truncated".into()))?;
        let (tag_bytes, rest) = entry.split_at(4);
        let tag_arr: [u8; 4] = tag_bytes
            .try_into()
            .map_err(|_| StoreError::Corrupt("section tag truncated".into()))?;
        let tag = SectionTag::parse(tag_arr)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown section tag {:?}", tag_arr)))?;
        let (off_bytes, rest) = rest.split_at(8);
        let (len_bytes, crc_bytes) = rest.split_at(8);
        let field = |b: &[u8]| -> Result<u64, StoreError> {
            b.try_into()
                .map(u64::from_le_bytes)
                .map_err(|_| StoreError::Corrupt("section entry truncated".into()))
        };
        Ok(SectionDesc {
            tag,
            offset: field(off_bytes)?,
            len: field(len_bytes)?,
            crc: crc_bytes
                .try_into()
                .map(u32::from_le_bytes)
                .map_err(|_| StoreError::Corrupt("section crc truncated".into()))?,
        })
    }
}

/// Summary of a packed store, as reported by `tkc store info` and the
/// bench harness.
#[derive(Debug, Clone)]
pub struct StoreInfo {
    /// Vertex count.
    pub num_vertices: usize,
    /// Live edge count.
    pub num_edges: usize,
    /// Raw edge-id bound (dead slots included).
    pub edge_bound: usize,
    /// Whether a κ section is present.
    pub has_kappa: bool,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// `(tag, payload bytes)` per section, in file order.
    pub sections: Vec<(SectionTag, u64)>,
}

impl StoreInfo {
    /// Size of the uncompressed in-memory CSR the store replaces
    /// (offsets + oriented nbr/eid arrays + rank table + work prefix
    /// sums, as laid out by `tkc_graph::CsrGraph`). The denominator for
    /// the compression ratio and the yardstick out-of-core budgets must
    /// beat.
    pub fn raw_csr_bytes(&self) -> u64 {
        let n = self.num_vertices as u64;
        let m = self.num_edges as u64;
        4 * (n + 1) + 4 * m + 4 * m + 4 * n + 8 * (n + 1)
    }

    /// Compressed-adjacency bytes (NBRS + EIDS + OFFS sections).
    pub fn adjacency_bytes(&self) -> u64 {
        self.sections
            .iter()
            .filter(|(t, _)| {
                matches!(
                    t,
                    SectionTag::Offsets | SectionTag::Neighbors | SectionTag::EdgeIds
                )
            })
            .map(|&(_, len)| len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::indexing_slicing)]

    use super::*;

    fn header() -> StoreHeader {
        StoreHeader {
            num_vertices: 10,
            edge_bound: 25,
            num_edges: 20,
            flags: FLAG_HAS_KAPPA,
            section_count: 6,
            seq: 0x0102_0304_0506_0708,
            term: 42,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = header();
        let bytes = h.encode();
        assert_eq!(StoreHeader::decode(&bytes).unwrap(), h);
        assert!(StoreHeader::decode(&bytes).unwrap().has_kappa());
    }

    #[test]
    fn seq_and_term_roundtrip_through_the_header() {
        for (seq, term) in [(0, 0), (7, 3), (u64::MAX, u64::MAX - 1)] {
            let h = StoreHeader {
                seq,
                term,
                ..header()
            };
            let back = StoreHeader::decode(&h.encode()).unwrap();
            assert_eq!((back.seq, back.term), (seq, term));
        }
    }

    #[test]
    fn version_one_header_reports_its_version() {
        // A v1 header is 48 bytes with its crc at 44..48; the version
        // must be reported before the v2 length and crc are checked.
        let mut v1 = header().encode();
        v1[7] = 1;
        assert!(matches!(
            StoreHeader::decode(&v1[..48]),
            Err(StoreError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn header_rejects_corruption() {
        let h = header();
        let clean = h.encode();
        // Any single-byte corruption is caught: magic, version, fields,
        // or the crc itself.
        for i in 0..clean.len() {
            let mut bad = clean;
            if let Some(b) = bad.get_mut(i) {
                *b ^= 0x10;
            }
            assert!(StoreHeader::decode(&bad).is_err(), "byte {i} undetected");
        }
        assert!(matches!(
            StoreHeader::decode(&clean[..20]),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(
            StoreHeader::decode(&clean[..5]),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn version_and_magic_take_precedence_after_crc() {
        let mut h = header().encode();
        // Recompute crc over a wrong version so decode reaches the
        // version check.
        h[7] = 9;
        let crc = crc32(&h[..HEADER_LEN - 4]);
        h[HEADER_LEN - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            StoreHeader::decode(&h),
            Err(StoreError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn section_entry_roundtrip() {
        let desc = SectionDesc {
            tag: SectionTag::Neighbors,
            offset: 0x1234_5678_9ABC,
            len: 99,
            crc: 0xDEAD_BEEF,
        };
        let mut buf = Vec::new();
        desc.encode(&mut buf);
        assert_eq!(buf.len(), SECTION_ENTRY_LEN);
        assert_eq!(SectionDesc::decode(&buf).unwrap(), desc);
        buf[0] = b'X';
        assert!(SectionDesc::decode(&buf).is_err());
    }

    #[test]
    fn tags_roundtrip() {
        for tag in SectionTag::ALL {
            assert_eq!(SectionTag::parse(tag.bytes()), Some(tag));
            assert_eq!(tag.name().len(), 4);
        }
        assert_eq!(SectionTag::parse(*b"ZZZZ"), None);
    }
}
