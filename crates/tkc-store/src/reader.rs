//! [`StoreReader`] — paged random access plus checksummed bulk loads.
//!
//! Opening a store reads and validates **only** the fixed header and the
//! section table (two small reads, both crc-checked) — that is what makes
//! engine cold-start O(header) instead of O(rebuild). After that there
//! are two access styles:
//!
//! * **Paged random access** — [`StoreReader::neighbors`],
//!   [`StoreReader::endpoints`], [`StoreReader::support`]: every byte
//!   comes through the LRU [`crate::cache::PageCache`], so a working set
//!   far smaller than the file serves repeated queries. Paged reads are
//!   *not* re-checksummed per access (a page is a fraction of a section);
//!   run [`StoreReader::verify_checksums`] first when reading bytes you
//!   do not trust — the out-of-core decompose and the engine reopen path
//!   both do.
//! * **Checksummed bulk loads** — [`StoreReader::read_supports`],
//!   [`StoreReader::read_kappa`], [`StoreReader::load_graph`]: one
//!   sequential pass over a whole section, verified against its table
//!   crc before a single value is returned.
//!
//! The reader implements [`AdjacencySource`] over full per-vertex
//! neighbor lists (raw vertex ids), the on-disk counterpart of
//! [`tkc_graph::CsrGraph`]'s in-memory rank lists. Interior mutability
//! (`RefCell`) keeps the surface `&self` like the in-memory snapshot;
//! the reader is deliberately not `Sync` — share the file, not the
//! reader.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use tkc_graph::{AdjacencySource, EdgeId, Graph, VertexId};

use crate::cache::{CacheStats, PageCache, PageCacheConfig};
use crate::crc::Crc32;
use crate::format::{
    SectionDesc, SectionTag, StoreError, StoreHeader, StoreInfo, DEAD_SLOT, HEADER_LEN,
    SECTION_ENTRY_LEN,
};
use crate::varint::{decode_delta_list, decode_u32_list};

/// Sanity cap on the section count a header may claim (the format
/// defines 6; a corrupt count must not drive a giant allocation).
const MAX_SECTIONS: u32 = 16;

/// A read-only handle on a packed `TKCSTOR` file.
#[derive(Debug)]
pub struct StoreReader {
    path: PathBuf,
    file: RefCell<File>,
    file_len: u64,
    header: StoreHeader,
    sections: Vec<SectionDesc>,
    cache: RefCell<PageCache>,
}

impl StoreReader {
    /// Opens `path`, validating the header and section table (their crcs,
    /// tag set, and payload extents) — section payloads are not read yet.
    pub fn open(path: &Path, config: PageCacheConfig) -> Result<StoreReader, StoreError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut head = vec![0u8; HEADER_LEN];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut head).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                StoreError::Corrupt("file shorter than the fixed header".into())
            } else {
                StoreError::Io(e)
            }
        })?;
        let header = StoreHeader::decode(&head)?;
        if header.section_count == 0 || header.section_count > MAX_SECTIONS {
            return Err(StoreError::Corrupt(format!(
                "implausible section count {}",
                header.section_count
            )));
        }
        let table_len = header.section_count as usize * SECTION_ENTRY_LEN + 4;
        let mut table = vec![0u8; table_len];
        file.read_exact(&mut table).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                StoreError::Corrupt("file shorter than its section table".into())
            } else {
                StoreError::Io(e)
            }
        })?;
        let (entries, crc_bytes) = table.split_at(table_len - 4);
        let stored = crc_bytes
            .try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| StoreError::Corrupt("section table crc missing".into()))?;
        if crate::crc::crc32(entries) != stored {
            return Err(StoreError::Checksum { part: "table" });
        }
        let mut sections = Vec::with_capacity(header.section_count as usize);
        for i in 0..header.section_count as usize {
            let entry = entries
                .get(i * SECTION_ENTRY_LEN..(i + 1) * SECTION_ENTRY_LEN)
                .ok_or_else(|| StoreError::Corrupt("section table truncated".into()))?;
            let desc = SectionDesc::decode(entry)?;
            let end = desc
                .offset
                .checked_add(desc.len)
                .ok_or_else(|| StoreError::Corrupt("section extent overflows".into()))?;
            if end > file_len {
                return Err(StoreError::Corrupt(format!(
                    "section {} extends past end of file ({end} > {file_len})",
                    desc.tag
                )));
            }
            if sections.iter().any(|s: &SectionDesc| s.tag == desc.tag) {
                return Err(StoreError::Corrupt(format!(
                    "duplicate section {}",
                    desc.tag
                )));
            }
            sections.push(desc);
        }
        let reader = StoreReader {
            path: path.to_path_buf(),
            file: RefCell::new(file),
            file_len,
            header,
            sections,
            cache: RefCell::new(PageCache::new(config, file_len)),
        };
        // Required sections must exist (κ only when the header claims it).
        for tag in [
            SectionTag::Offsets,
            SectionTag::Neighbors,
            SectionTag::EdgeIds,
            SectionTag::Edges,
            SectionTag::Supports,
        ] {
            reader.section(tag)?;
        }
        if reader.header.has_kappa() {
            reader.section(SectionTag::Kappa)?;
        }
        Ok(reader)
    }

    /// The file this reader is backed by.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> usize {
        self.header.num_vertices as usize
    }

    /// Live edge count.
    pub fn num_edges(&self) -> usize {
        self.header.num_edges as usize
    }

    /// Exclusive upper bound on raw edge ids (dead slots included).
    pub fn edge_bound(&self) -> usize {
        self.header.edge_bound as usize
    }

    /// WAL sequence number the store covers through (0 outside an
    /// engine).
    pub fn seq(&self) -> u64 {
        self.header.seq
    }

    /// Fencing term of the node that wrote the store.
    pub fn term(&self) -> u64 {
        self.header.term
    }

    /// True if the store carries a κ section.
    pub fn has_kappa(&self) -> bool {
        self.header.has_kappa()
    }

    /// Store summary (sections, sizes) without touching payloads.
    pub fn info(&self) -> StoreInfo {
        StoreInfo {
            num_vertices: self.num_vertices(),
            num_edges: self.num_edges(),
            edge_bound: self.edge_bound(),
            has_kappa: self.has_kappa(),
            file_bytes: self.file_len,
            sections: self.sections.iter().map(|d| (d.tag, d.len)).collect(),
        }
    }

    /// Page-cache traffic counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.borrow().stats()
    }

    /// Bytes currently resident in the page cache.
    pub fn cache_resident_bytes(&self) -> u64 {
        self.cache.borrow().resident_bytes()
    }

    fn section(&self, tag: SectionTag) -> Result<SectionDesc, StoreError> {
        self.sections
            .iter()
            .find(|d| d.tag == tag)
            .copied()
            .ok_or(StoreError::MissingSection(tag))
    }

    /// Paged read of `len` bytes at `offset` within section `tag` into
    /// `out` (cleared first).
    fn read_in_section(
        &self,
        tag: SectionTag,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        let desc = self.section(tag)?;
        let end = offset.checked_add(len as u64).filter(|&e| e <= desc.len);
        let Some(_) = end else {
            return Err(StoreError::Corrupt(format!(
                "read of {len}B at {offset} exceeds {} section ({}B)",
                tag, desc.len
            )));
        };
        out.clear();
        self.cache.borrow_mut().read_range(
            &mut self.file.borrow_mut(),
            desc.offset + offset,
            len,
            out,
        )?;
        Ok(())
    }

    /// The `(nbr_start, eid_start, nbr_end, eid_end)` byte extents of
    /// vertex `v`'s lists, from the OFFS section.
    fn list_extents(&self, v: u32) -> Result<(u64, u64, u64, u64), StoreError> {
        if (v as u64) >= self.header.num_vertices {
            return Err(StoreError::Corrupt(format!(
                "vertex {v} out of range (n = {})",
                self.header.num_vertices
            )));
        }
        let mut buf = Vec::with_capacity(32);
        self.read_in_section(SectionTag::Offsets, u64::from(v) * 16, 32, &mut buf)?;
        let mut vals = [0u64; 4];
        for (i, slot) in vals.iter_mut().enumerate() {
            *slot = buf
                .get(i * 8..(i + 1) * 8)
                .and_then(|b| b.try_into().ok())
                .map(u64::from_le_bytes)
                .ok_or_else(|| StoreError::Corrupt("OFFS entry truncated".into()))?;
        }
        let [nbr_lo, eid_lo, nbr_hi, eid_hi] = vals;
        if nbr_hi < nbr_lo || eid_hi < eid_lo {
            return Err(StoreError::Corrupt(format!(
                "OFFS entries for vertex {v} not monotone"
            )));
        }
        Ok((nbr_lo, eid_lo, nbr_hi, eid_hi))
    }

    /// Reads vertex `v`'s full neighbor list into `out` (cleared first)
    /// as `(neighbor id, edge id)` pairs ascending by neighbor —
    /// the paged counterpart of [`Graph::adjacency`].
    pub fn neighbors(&self, v: u32, out: &mut Vec<(u32, EdgeId)>) -> Result<(), StoreError> {
        out.clear();
        let (nbr_lo, eid_lo, nbr_hi, eid_hi) = self.list_extents(v)?;
        let mut nbr_bytes = Vec::new();
        self.read_in_section(
            SectionTag::Neighbors,
            nbr_lo,
            usize::try_from(nbr_hi - nbr_lo)
                .map_err(|_| StoreError::Corrupt("neighbor extent overflows".into()))?,
            &mut nbr_bytes,
        )?;
        decode_delta_list(&nbr_bytes, 0, nbr_bytes.len(), |w| out.push((w, EdgeId(0))))
            .ok_or_else(|| StoreError::Corrupt(format!("bad neighbor varints for vertex {v}")))?;
        let mut eid_bytes = Vec::new();
        self.read_in_section(
            SectionTag::EdgeIds,
            eid_lo,
            usize::try_from(eid_hi - eid_lo)
                .map_err(|_| StoreError::Corrupt("edge-id extent overflows".into()))?,
            &mut eid_bytes,
        )?;
        let mut at = 0usize;
        decode_u32_list(&eid_bytes, 0, eid_bytes.len(), |e| {
            if let Some(slot) = out.get_mut(at) {
                slot.1 = EdgeId(e);
            }
            at += 1;
        })
        .ok_or_else(|| StoreError::Corrupt(format!("bad edge-id varints for vertex {v}")))?;
        if at != out.len() {
            return Err(StoreError::Corrupt(format!(
                "vertex {v}: {} neighbors but {at} edge ids",
                out.len()
            )));
        }
        Ok(())
    }

    /// Endpoints of edge slot `e` (`None` for a dead slot), paged from
    /// the EDGE section.
    pub fn endpoints(&self, e: u32) -> Result<Option<(u32, u32)>, StoreError> {
        if u64::from(e) >= self.header.edge_bound {
            return Err(StoreError::Corrupt(format!(
                "edge id {e} out of range (bound {})",
                self.header.edge_bound
            )));
        }
        let mut buf = Vec::with_capacity(8);
        self.read_in_section(SectionTag::Edges, u64::from(e) * 8, 8, &mut buf)?;
        let word = |at: usize| {
            buf.get(at..at + 4)
                .and_then(|b| b.try_into().ok())
                .map(u32::from_le_bytes)
                .ok_or_else(|| StoreError::Corrupt("EDGE entry truncated".into()))
        };
        let (u, v) = (word(0)?, word(4)?);
        if u == DEAD_SLOT && v == DEAD_SLOT {
            return Ok(None);
        }
        if u >= v || u64::from(v) >= self.header.num_vertices {
            return Err(StoreError::Corrupt(format!(
                "edge {e} endpoints ({u}, {v}) invalid"
            )));
        }
        Ok(Some((u, v)))
    }

    /// Paged single-value read from a `u32`-array section.
    fn u32_at(&self, tag: SectionTag, index: u32) -> Result<u32, StoreError> {
        let mut buf = Vec::with_capacity(4);
        self.read_in_section(tag, u64::from(index) * 4, 4, &mut buf)?;
        buf.as_slice()
            .try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| StoreError::Corrupt("u32 section entry truncated".into()))
    }

    /// Support of edge slot `e`, paged from the SUPP section.
    pub fn support(&self, e: u32) -> Result<u32, StoreError> {
        self.u32_at(SectionTag::Supports, e)
    }

    /// κ of edge slot `e`, paged from the KAPP section.
    pub fn kappa_at(&self, e: u32) -> Result<u32, StoreError> {
        self.u32_at(SectionTag::Kappa, e)
    }

    /// One sequential, crc-verified read of a whole section's payload.
    fn read_section_bytes(&self, tag: SectionTag) -> Result<Vec<u8>, StoreError> {
        let desc = self.section(tag)?;
        let len = usize::try_from(desc.len)
            .map_err(|_| StoreError::Corrupt("section too large for memory".into()))?;
        let mut bytes = vec![0u8; len];
        {
            let mut file = self.file.borrow_mut();
            file.seek(SeekFrom::Start(desc.offset))?;
            file.read_exact(&mut bytes)?;
        }
        if crate::crc::crc32(&bytes) != desc.crc {
            return Err(StoreError::Checksum { part: tag.name() });
        }
        Ok(bytes)
    }

    fn read_u32_section(&self, tag: SectionTag) -> Result<Vec<u32>, StoreError> {
        let bytes = self.read_section_bytes(tag)?;
        if bytes.len() % 4 != 0 || bytes.len() as u64 != self.header.edge_bound * 4 {
            return Err(StoreError::Corrupt(format!(
                "{tag} section is {}B, expected {}B",
                bytes.len(),
                self.header.edge_bound * 4
            )));
        }
        let mut out = Vec::with_capacity(bytes.len() / 4);
        for chunk in bytes.chunks_exact(4) {
            let word = chunk
                .try_into()
                .map(u32::from_le_bytes)
                .map_err(|_| StoreError::Corrupt("u32 chunk truncated".into()))?;
            out.push(word);
        }
        Ok(out)
    }

    /// The full per-edge support vector (crc-verified sequential read).
    pub fn read_supports(&self) -> Result<Vec<u32>, StoreError> {
        self.read_u32_section(SectionTag::Supports)
    }

    /// The full per-edge κ vector (crc-verified sequential read).
    pub fn read_kappa(&self) -> Result<Vec<u32>, StoreError> {
        self.read_u32_section(SectionTag::Kappa)
    }

    /// The edge-slot endpoint table (crc-verified sequential read), in
    /// the shape [`Graph::from_parts`] takes.
    pub fn load_slots(&self) -> Result<Vec<Option<(VertexId, VertexId)>>, StoreError> {
        let bytes = self.read_section_bytes(SectionTag::Edges)?;
        if bytes.len() as u64 != self.header.edge_bound * 8 {
            return Err(StoreError::Corrupt(format!(
                "EDGE section is {}B, expected {}B",
                bytes.len(),
                self.header.edge_bound * 8
            )));
        }
        let mut slots = Vec::with_capacity(self.edge_bound());
        for chunk in bytes.chunks_exact(8) {
            let (ub, vb) = chunk.split_at(4);
            let u = ub
                .try_into()
                .map(u32::from_le_bytes)
                .map_err(|_| StoreError::Corrupt("EDGE chunk truncated".into()))?;
            let v = vb
                .try_into()
                .map(u32::from_le_bytes)
                .map_err(|_| StoreError::Corrupt("EDGE chunk truncated".into()))?;
            if u == DEAD_SLOT && v == DEAD_SLOT {
                slots.push(None);
            } else {
                slots.push(Some((VertexId(u), VertexId(v))));
            }
        }
        Ok(slots)
    }

    /// Decodes the full adjacency (crc-verified sequential reads of OFFS,
    /// NBRS and EIDS), in the shape [`Graph::from_parts`] takes.
    pub fn load_adjacency(&self) -> Result<Vec<Vec<(VertexId, EdgeId)>>, StoreError> {
        let n = self.num_vertices();
        let offs = self.read_section_bytes(SectionTag::Offsets)?;
        if offs.len() != (n + 1) * 16 {
            return Err(StoreError::Corrupt(format!(
                "OFFS section is {}B, expected {}B",
                offs.len(),
                (n + 1) * 16
            )));
        }
        let nbrs = self.read_section_bytes(SectionTag::Neighbors)?;
        let eids = self.read_section_bytes(SectionTag::EdgeIds)?;
        let extent = |i: usize, half: usize| -> Result<usize, StoreError> {
            offs.get(i * 16 + half * 8..i * 16 + half * 8 + 8)
                .and_then(|b| b.try_into().ok())
                .map(u64::from_le_bytes)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| StoreError::Corrupt("OFFS entry unreadable".into()))
        };
        let mut adj = Vec::with_capacity(n);
        for v in 0..n {
            let (nbr_lo, nbr_hi) = (extent(v, 0)?, extent(v + 1, 0)?);
            let (eid_lo, eid_hi) = (extent(v, 1)?, extent(v + 1, 1)?);
            if nbr_hi < nbr_lo || nbr_hi > nbrs.len() || eid_hi < eid_lo || eid_hi > eids.len() {
                return Err(StoreError::Corrupt(format!(
                    "OFFS extents for vertex {v} out of bounds"
                )));
            }
            let mut list: Vec<(VertexId, EdgeId)> = Vec::new();
            decode_delta_list(&nbrs, nbr_lo, nbr_hi, |w| {
                list.push((VertexId(w), EdgeId(0)))
            })
            .ok_or_else(|| StoreError::Corrupt(format!("bad neighbor varints for vertex {v}")))?;
            let mut at = 0usize;
            decode_u32_list(&eids, eid_lo, eid_hi, |e| {
                if let Some(slot) = list.get_mut(at) {
                    slot.1 = EdgeId(e);
                }
                at += 1;
            })
            .ok_or_else(|| StoreError::Corrupt(format!("bad edge-id varints for vertex {v}")))?;
            if at != list.len() {
                return Err(StoreError::Corrupt(format!(
                    "vertex {v}: {} neighbors but {at} edge ids",
                    list.len()
                )));
            }
            adj.push(list);
        }
        Ok(adj)
    }

    /// Reconstructs the full dynamic [`Graph`] — the engine's fast reopen
    /// path. Every section involved is crc-verified and the result passes
    /// the graph's own structural invariants before it is returned.
    pub fn load_graph(&self) -> Result<Graph, StoreError> {
        let adj = self.load_adjacency()?;
        let slots = self.load_slots()?;
        let g = Graph::from_parts(adj, slots).map_err(StoreError::Corrupt)?;
        if g.num_edges() != self.num_edges() {
            return Err(StoreError::Corrupt(format!(
                "store header claims {} live edges, sections hold {}",
                self.num_edges(),
                g.num_edges()
            )));
        }
        Ok(g)
    }

    /// Streams a section's payload sequentially through `f` in bounded
    /// chunks, without whole-section allocation. **Not** crc-verified —
    /// run [`StoreReader::verify_checksums`] first (the out-of-core
    /// peel does exactly that before its initialization scan).
    pub fn stream_section(
        &self,
        tag: SectionTag,
        mut f: impl FnMut(&[u8]) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let desc = self.section(tag)?;
        let mut buf = vec![0u8; 1 << 16];
        let mut remaining = desc.len;
        {
            let mut file = self.file.borrow_mut();
            file.seek(SeekFrom::Start(desc.offset))?;
        }
        while remaining > 0 {
            let take = (buf.len() as u64).min(remaining) as usize;
            let chunk = buf
                .get_mut(..take)
                .ok_or_else(|| StoreError::Corrupt("stream buffer sizing".into()))?;
            self.file.borrow_mut().read_exact(chunk)?;
            f(chunk)?;
            remaining -= take as u64;
        }
        Ok(())
    }

    /// Streams every section through its crc (bounded buffer, no
    /// whole-section allocation). `Ok(())` means every payload byte on
    /// disk matches the table the header vouches for.
    pub fn verify_checksums(&self) -> Result<(), StoreError> {
        let mut buf = vec![0u8; 1 << 16];
        for desc in &self.sections {
            let mut crc = Crc32::new();
            let mut remaining = desc.len;
            let mut file = self.file.borrow_mut();
            file.seek(SeekFrom::Start(desc.offset))?;
            while remaining > 0 {
                let take = (buf.len() as u64).min(remaining) as usize;
                let chunk = buf
                    .get_mut(..take)
                    .ok_or_else(|| StoreError::Corrupt("verify buffer sizing".into()))?;
                file.read_exact(chunk)?;
                crc.update(chunk);
                remaining -= take as u64;
            }
            if crc.finish() != desc.crc {
                return Err(StoreError::Checksum {
                    part: desc.tag.name(),
                });
            }
        }
        Ok(())
    }
}

impl AdjacencySource for StoreReader {
    fn num_lists(&self) -> usize {
        self.num_vertices()
    }

    fn num_edges(&self) -> usize {
        StoreReader::num_edges(self)
    }

    fn edge_bound(&self) -> usize {
        StoreReader::edge_bound(self)
    }

    fn for_each_entry(&self, list: u32, f: &mut dyn FnMut(u32, EdgeId)) -> io::Result<()> {
        let mut out = Vec::new();
        self.neighbors(list, &mut out)?;
        for (w, e) in out {
            f(w, e);
        }
        Ok(())
    }

    fn read_list(&self, list: u32, out: &mut Vec<(u32, EdgeId)>) -> io::Result<()> {
        self.neighbors(list, out)?;
        Ok(())
    }
}
