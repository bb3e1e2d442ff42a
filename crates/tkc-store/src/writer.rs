//! Packing a graph snapshot into `TKCSTOR` bytes.
//!
//! [`pack_graph`] serializes a [`Graph`] (plus its per-edge supports and,
//! optionally, κ) into the section payloads described in [`crate::format`].
//! The result is a [`StoreParts`] value holding the encoded sections;
//! writing it out goes through the [`WalStorage`] trait with **one
//! positioned write per part** (header, table, then each section in
//! order), so the tkc-faults harness can target any single section with a
//! deterministic bitflip/short-write failpoint — the same discipline the
//! engine's WAL follows.
//!
//! Packing is the in-memory side of the out-of-core story: it runs where
//! the graph already lives in RAM (engine compaction, `tkc store pack`)
//! and exists so every *later* consumer — decompose, reopen, serving —
//! does not have to.

use std::io;
use std::path::Path;

use tkc_faults::{DiskFile, WalStorage};
use tkc_graph::Graph;

use crate::crc::crc32;
use crate::format::{
    SectionDesc, SectionTag, StoreError, StoreHeader, StoreInfo, DEAD_SLOT, FLAG_HAS_KAPPA,
    HEADER_LEN, SECTION_ENTRY_LEN,
};
use crate::varint::{encode_delta_list, encode_u64};

/// A fully encoded store: header + section table + payloads, ready to be
/// written through any [`WalStorage`].
#[derive(Debug)]
pub struct StoreParts {
    header: StoreHeader,
    sections: Vec<(SectionDesc, Vec<u8>)>,
}

/// Encodes `g` (with `supports`, and κ when given) into store parts.
///
/// `supports` — and `kappa`, when present — must be indexed by raw edge
/// id, `g.edge_bound()` long, exactly as produced by
/// `CsrGraph::edge_supports` / the decomposition. Dead slots may hold any
/// value; the reader masks them via the EDGE section's sentinel pairs.
pub fn pack_graph(
    g: &Graph,
    supports: &[u32],
    kappa: Option<&[u32]>,
) -> Result<StoreParts, StoreError> {
    let n = g.num_vertices();
    let edge_bound = g.edge_bound();
    if supports.len() != edge_bound {
        return Err(StoreError::Corrupt(format!(
            "supports length {} != edge bound {edge_bound}",
            supports.len()
        )));
    }
    if let Some(k) = kappa {
        if k.len() != edge_bound {
            return Err(StoreError::Corrupt(format!(
                "kappa length {} != edge bound {edge_bound}",
                k.len()
            )));
        }
    }

    // Adjacency: delta-varint neighbor ids + varint edge ids, with a
    // (nbr, eid) byte-offset pair per vertex (plus the end sentinel).
    let mut offs = Vec::with_capacity(16 * (n + 1));
    let mut nbrs = Vec::new();
    let mut eids = Vec::new();
    let mut nbr_scratch: Vec<u32> = Vec::new();
    for v in 0..n {
        offs.extend_from_slice(&(nbrs.len() as u64).to_le_bytes());
        offs.extend_from_slice(&(eids.len() as u64).to_le_bytes());
        nbr_scratch.clear();
        let list = g.adjacency(tkc_graph::VertexId::from(v));
        nbr_scratch.extend(list.iter().map(|&(w, _)| w.0));
        encode_delta_list(&mut nbrs, &nbr_scratch);
        for &(_, e) in list {
            encode_u64(&mut eids, u64::from(e.0));
        }
    }
    offs.extend_from_slice(&(nbrs.len() as u64).to_le_bytes());
    offs.extend_from_slice(&(eids.len() as u64).to_le_bytes());

    // Edge-slot endpoints; dead slots get sentinel pairs.
    let mut edge = Vec::with_capacity(8 * edge_bound);
    for i in 0..edge_bound {
        let (u, v) = match g.endpoints_checked(tkc_graph::EdgeId::from(i)) {
            Some((u, v)) => (u.0, v.0),
            None => (DEAD_SLOT, DEAD_SLOT),
        };
        edge.extend_from_slice(&u.to_le_bytes());
        edge.extend_from_slice(&v.to_le_bytes());
    }

    let mut supp = Vec::with_capacity(4 * edge_bound);
    for &s in supports {
        supp.extend_from_slice(&s.to_le_bytes());
    }

    let mut payloads = vec![
        (SectionTag::Offsets, offs),
        (SectionTag::Neighbors, nbrs),
        (SectionTag::EdgeIds, eids),
        (SectionTag::Edges, edge),
        (SectionTag::Supports, supp),
    ];
    let mut flags = 0u32;
    if let Some(k) = kappa {
        let mut kap = Vec::with_capacity(4 * edge_bound);
        for &x in k {
            kap.extend_from_slice(&x.to_le_bytes());
        }
        payloads.push((SectionTag::Kappa, kap));
        flags |= FLAG_HAS_KAPPA;
    }

    let header = StoreHeader {
        num_vertices: n as u64,
        edge_bound: edge_bound as u64,
        num_edges: g.num_edges() as u64,
        flags,
        section_count: payloads.len() as u32,
        seq: 0,
        term: 0,
    };
    // Lay out payloads back to back after the table and checksum them.
    let table_len = payloads.len() * SECTION_ENTRY_LEN + 4;
    let mut at = (HEADER_LEN + table_len) as u64;
    let sections = payloads
        .into_iter()
        .map(|(tag, bytes)| {
            let desc = SectionDesc {
                tag,
                offset: at,
                len: bytes.len() as u64,
                crc: crc32(&bytes),
            };
            at += desc.len;
            (desc, bytes)
        })
        .collect();
    Ok(StoreParts { header, sections })
}

impl StoreParts {
    /// Total encoded size in bytes.
    pub fn total_bytes(&self) -> u64 {
        let payloads: u64 = self.sections.iter().map(|(d, _)| d.len).sum();
        (HEADER_LEN + self.sections.len() * SECTION_ENTRY_LEN + 4) as u64 + payloads
    }

    /// Summary for `tkc store info` / the bench harness.
    pub fn info(&self) -> StoreInfo {
        StoreInfo {
            num_vertices: self.header.num_vertices as usize,
            num_edges: self.header.num_edges as usize,
            edge_bound: self.header.edge_bound as usize,
            has_kappa: self.header.has_kappa(),
            file_bytes: self.total_bytes(),
            sections: self.sections.iter().map(|(d, _)| (d.tag, d.len)).collect(),
        }
    }

    /// The encoded section table (entries + trailing table crc).
    fn encode_table(&self) -> Vec<u8> {
        let mut table = Vec::with_capacity(self.sections.len() * SECTION_ENTRY_LEN + 4);
        for (desc, _) in &self.sections {
            desc.encode(&mut table);
        }
        let crc = crc32(&table);
        table.extend_from_slice(&crc.to_le_bytes());
        table
    }

    /// Sets the replication position the store covers in its header:
    /// `seq`, the WAL sequence number of the last op folded in,
    /// and `term`, the writer's fencing term. [`pack_graph`] leaves both
    /// at zero.
    pub fn with_position(mut self, seq: u64, term: u64) -> StoreParts {
        self.header.seq = seq;
        self.header.term = term;
        self
    }

    /// Writes the store through `storage`: header, table, then one
    /// `write_at` per section, then a sync. Returns total bytes written.
    pub fn write_to_storage(&self, storage: &mut dyn WalStorage) -> io::Result<u64> {
        let total = self.total_bytes();
        storage.set_len(0)?;
        storage.write_at(0, &self.header.encode())?;
        storage.write_at(HEADER_LEN as u64, &self.encode_table())?;
        for (desc, bytes) in &self.sections {
            storage.write_at(desc.offset, bytes)?;
        }
        storage.set_len(total)?;
        storage.sync()?;
        Ok(total)
    }

    /// The whole encoded store in one buffer: header, table, then the
    /// sections, which tile the rest of the file in order. Byte-identical
    /// to what [`StoreParts::write_to_storage`] writes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_bytes() as usize);
        out.extend_from_slice(&self.header.encode());
        out.extend_from_slice(&self.encode_table());
        for (_, bytes) in &self.sections {
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Writes the store to `path` (truncating any previous contents) via
    /// [`DiskFile`] and syncs it. Callers needing atomic replacement
    /// write to a temporary path and rename, as the engine's compaction
    /// does.
    pub fn write_path(&self, path: &Path) -> io::Result<u64> {
        let mut file = DiskFile::open(path)?;
        self.write_to_storage(&mut file)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::indexing_slicing)]

    use super::*;
    use tkc_graph::{generators, VertexId};

    #[test]
    fn pack_rejects_mismatched_state_vectors() {
        let g = generators::complete(4);
        assert!(pack_graph(&g, &[0; 3], None).is_err());
        let sup = vec![2u32; g.edge_bound()];
        assert!(pack_graph(&g, &sup, Some(&[0u32; 1])).is_err());
        assert!(pack_graph(&g, &sup, None).is_ok());
    }

    #[test]
    fn parts_layout_is_contiguous_and_sized() {
        let mut g = generators::complete(6);
        g.remove_edge_between(VertexId(0), VertexId(1)).unwrap();
        let sup = vec![0u32; g.edge_bound()];
        let kap = vec![1u32; g.edge_bound()];
        let parts = pack_graph(&g, &sup, Some(&kap)).unwrap();
        let info = parts.info();
        assert_eq!(info.num_vertices, 6);
        assert_eq!(info.num_edges, 14);
        assert_eq!(info.edge_bound, 15);
        assert!(info.has_kappa);
        assert_eq!(info.sections.len(), 6);
        // Sections tile the file after header + table.
        let mut at = (HEADER_LEN + 6 * SECTION_ENTRY_LEN + 4) as u64;
        for (desc, bytes) in &parts.sections {
            assert_eq!(desc.offset, at);
            assert_eq!(desc.len, bytes.len() as u64);
            at += desc.len;
        }
        assert_eq!(at, parts.total_bytes());
        assert_eq!(info.file_bytes, parts.total_bytes());
    }

    #[test]
    fn writing_twice_is_deterministic() {
        let g = generators::holme_kim(80, 3, 0.5, 17);
        let sup = vec![3u32; g.edge_bound()];
        let parts = pack_graph(&g, &sup, None).unwrap();
        let dir = std::env::temp_dir().join("tkc_store_writer_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.tkcstor"), dir.join("b.tkcstor"));
        parts.write_path(&a).unwrap();
        parts.write_path(&b).unwrap();
        let (ba, bb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert_eq!(ba, bb);
        assert_eq!(ba.len() as u64, parts.total_bytes());
        assert_eq!(parts.to_bytes(), ba, "in-memory bytes match the file");
        // Rewriting over a longer stale file truncates it.
        std::fs::write(&a, vec![0xFFu8; ba.len() + 500]).unwrap();
        parts.write_path(&a).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), bb);
    }
}
