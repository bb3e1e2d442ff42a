//! Persistence for decomposition results and engine state.
//!
//! Two text formats live here:
//!
//! * the **kappa format** (`u v kappa` per line, versioned magic header)
//!   so κ vectors survive across processes — decompose once on a server,
//!   plot/probe elsewhere, or seed a
//!   [`crate::dynamic::DynamicTriangleKCore`] without re-peeling;
//! * the **state format** ([`write_state`] / [`read_state`]), which
//!   additionally records the vertex count so the *graph itself* can be
//!   reconstructed together with κ. The engine snapshots to a packed
//!   `TKCSTOR` store, not to this format; `tkc store pack <dir>` imports
//!   a `state.tkc` written here into that store.
//!
//! All readers return the structured [`PersistError`], which is shared
//! with the engine's WAL so one error vocabulary covers every durability
//! surface (magic/version checks, per-line parse failures, coverage,
//! checksums, torn binary records).

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use tkc_graph::{Graph, VertexId};

use crate::decompose::Decomposition;

/// Magic prefix of the kappa format's versioned header line.
pub const KAPPA_MAGIC: &str = "# triangle-kcore kappa v";
/// Kappa format version written by [`write_kappa`].
pub const KAPPA_VERSION: u32 = 2;
/// Magic prefix of the state format's versioned header line.
pub const STATE_MAGIC: &str = "# triangle-kcore state v";
/// State format version written by [`write_state`]. v2 added an optional
/// `store <stamp>` header field (still parsed past, no longer written);
/// v3 adds the replication watermarks `seq` (WAL sequence number the
/// snapshot covers through — the floor every later WAL record counts up
/// from) and `term` (the primary-election fencing term). v1/v2 files
/// read as `seq 0; term 0`.
pub const STATE_VERSION: u32 = 3;

/// Structured error for every persistence reader in the workspace: the
/// text formats here and the binary WAL records of `tkc-engine`.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A required magic header line was missing or unrecognizable.
    BadMagic {
        /// The magic prefix that was expected.
        expected: &'static str,
    },
    /// The header named a format version this build cannot read.
    UnsupportedVersion {
        /// Which format the header belongs to.
        format: &'static str,
        /// The version number found in the file.
        found: u32,
    },
    /// A line failed to parse.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What was expected.
        reason: String,
    },
    /// An edge named in the file is absent from the graph.
    UnknownEdge {
        /// 1-based line number.
        line: usize,
        /// Edge endpoints as written.
        endpoints: (u32, u32),
    },
    /// The same edge appeared twice.
    DuplicateEdge {
        /// 1-based line number.
        line: usize,
        /// Edge endpoints as written.
        endpoints: (u32, u32),
    },
    /// The file did not cover every live edge exactly once.
    Coverage {
        /// Edges covered by the file.
        covered: usize,
        /// Live edges expected.
        expected: usize,
    },
    /// A binary WAL record failed its checksum.
    Checksum {
        /// Byte offset of the failing record.
        offset: u64,
    },
    /// A binary WAL record was cut short (torn tail).
    Truncated {
        /// Byte offset of the torn record.
        offset: u64,
    },
    /// A structurally invalid binary record (valid checksum, bad content).
    Corrupt {
        /// Byte offset of the record.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic { expected } => {
                write!(f, "missing or bad magic header (expected {expected:?})")
            }
            PersistError::UnsupportedVersion { format, found } => {
                write!(f, "unsupported {format} format version {found}")
            }
            PersistError::BadRecord { line, reason } => write!(f, "line {line}: {reason}"),
            PersistError::UnknownEdge {
                line,
                endpoints: (u, v),
            } => write!(f, "line {line}: edge ({u}, {v}) not in graph"),
            PersistError::DuplicateEdge {
                line,
                endpoints: (u, v),
            } => write!(f, "line {line}: duplicate edge ({u}, {v})"),
            PersistError::Coverage { covered, expected } => {
                write!(f, "file covers {covered} of {expected} edges")
            }
            PersistError::Checksum { offset } => {
                write!(f, "checksum mismatch at byte {offset}")
            }
            PersistError::Truncated { offset } => {
                write!(f, "truncated record at byte {offset}")
            }
            PersistError::Corrupt { offset, reason } => {
                write!(f, "corrupt record at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Checks a comment line against a magic prefix; `Some(version)` when it
/// is a header of that format.
fn parse_header(line: &str, magic: &'static str) -> Option<u32> {
    let rest = line.strip_prefix(magic)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Writes `u v κ` per live edge, in edge-id order, behind a versioned
/// magic header.
///
/// # Examples
///
/// ```
/// use tkc_graph::generators;
/// use tkc_core::decompose::triangle_kcore_decomposition;
/// use tkc_core::persist::{read_kappa, write_kappa};
///
/// let g = generators::complete(5);
/// let d = triangle_kcore_decomposition(&g);
/// let mut buf = Vec::new();
/// write_kappa(&g, &d, &mut buf).unwrap();
/// let restored = read_kappa(&g, buf.as_slice()).unwrap();
/// assert!(g.edge_ids().all(|e| restored[e.index()] == 3));
/// ```
pub fn write_kappa<W: Write>(g: &Graph, d: &Decomposition, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{KAPPA_MAGIC}{KAPPA_VERSION}; edges {}", g.num_edges())?;
    for e in g.edge_ids() {
        let (u, v) = g.endpoints(e);
        writeln!(w, "{u} {v} {}", d.kappa(e))?;
    }
    w.flush()
}

/// Reads a κ file back against a graph, returning a vector indexed by the
/// graph's edge ids. Errors on unknown format versions, unknown edges,
/// duplicates, or missing edges (every live edge must be covered).
/// Headerless files are accepted as the pre-versioning legacy format.
pub fn read_kappa<R: Read>(g: &Graph, reader: R) -> Result<Vec<u32>, PersistError> {
    let reader = BufReader::new(reader);
    let mut kappa = vec![u32::MAX; g.edge_bound()];
    let mut covered = 0usize;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if t.starts_with('#') {
            if let Some(version) = parse_header(t, KAPPA_MAGIC) {
                if version == 0 || version > KAPPA_VERSION {
                    return Err(PersistError::UnsupportedVersion {
                        format: "kappa",
                        found: version,
                    });
                }
            }
            continue;
        }
        let (u, v, k) = parse_uvk(t, lineno, "expected 'u v kappa'")?;
        let e = g
            .edge_between(VertexId(u), VertexId(v))
            .ok_or(PersistError::UnknownEdge {
                line: lineno,
                endpoints: (u, v),
            })?;
        if kappa[e.index()] != u32::MAX {
            return Err(PersistError::DuplicateEdge {
                line: lineno,
                endpoints: (u, v),
            });
        }
        kappa[e.index()] = k;
        covered += 1;
    }
    if covered != g.num_edges() {
        return Err(PersistError::Coverage {
            covered,
            expected: g.num_edges(),
        });
    }
    for slot in kappa.iter_mut() {
        if *slot == u32::MAX {
            *slot = 0; // dead slots
        }
    }
    Ok(kappa)
}

/// Parses a `u v kappa` data line.
fn parse_uvk(t: &str, lineno: usize, what: &str) -> Result<(u32, u32, u32), PersistError> {
    let mut parts = t.split_whitespace();
    let bad = || PersistError::BadRecord {
        line: lineno,
        reason: what.to_string(),
    };
    let u: u32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let v: u32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let k: u32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    Ok((u, v, k))
}

/// Writes the full maintainable state — vertex count plus every live edge
/// with its κ — so [`read_state`] can rebuild both the [`Graph`] and the κ
/// vector. This is the compaction snapshot format of the engine WAL.
///
/// `kappa` is indexed by raw edge id, exactly as
/// [`crate::dynamic::DynamicTriangleKCore::kappa_slice`] and
/// [`Decomposition::kappa_slice`] hand it out.
pub fn write_state<W: Write>(g: &Graph, kappa: &[u32], writer: W) -> std::io::Result<()> {
    write_state_tagged(g, kappa, 0, 0, writer)
}

/// [`write_state`] with the v3 replication watermarks: `seq` is the WAL
/// sequence number this snapshot covers through (records appended after
/// it count up from it), `term` the fencing term of the primary that
/// wrote it.
pub fn write_state_tagged<W: Write>(
    g: &Graph,
    kappa: &[u32],
    seq: u64,
    term: u64,
    writer: W,
) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "{STATE_MAGIC}{STATE_VERSION}; vertices {}; edges {}; seq {seq}; term {term}",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (e, u, v) in g.edges() {
        let k = kappa.get(e.index()).copied().unwrap_or(0);
        writeln!(w, "{u} {v} {k}")?;
    }
    w.flush()
}

/// Reads a state file back into a fresh `(Graph, κ)` pair. Edge ids are
/// assigned in file order (they need not match the ids of the writing
/// process — κ is re-indexed accordingly). The magic header is mandatory.
pub fn read_state<R: Read>(reader: R) -> Result<(Graph, Vec<u32>), PersistError> {
    let (g, kappa, _) = read_state_full(reader)?;
    Ok((g, kappa))
}

/// [`read_state`] plus the header's replication watermarks.
pub fn read_state_full<R: Read>(reader: R) -> Result<(Graph, Vec<u32>, StateHeader), PersistError> {
    let reader = BufReader::new(reader);
    let mut g: Option<Graph> = None;
    let mut declared_edges = 0usize;
    let mut kappa: Vec<u32> = Vec::new();
    let mut header = StateHeader::default();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if t.starts_with('#') {
            if g.is_none() {
                let version = parse_header(t, STATE_MAGIC).ok_or(PersistError::BadMagic {
                    expected: STATE_MAGIC,
                })?;
                if version == 0 || version > STATE_VERSION {
                    return Err(PersistError::UnsupportedVersion {
                        format: "state",
                        found: version,
                    });
                }
                let (vertices, edges) =
                    parse_state_counts(t).ok_or_else(|| PersistError::BadRecord {
                        line: lineno,
                        reason: "header missing 'vertices N; edges M'".to_string(),
                    })?;
                header = StateHeader {
                    seq: parse_header_u64(t, "; seq ").unwrap_or(0),
                    term: parse_header_u64(t, "; term ").unwrap_or(0),
                };
                // `with_capacity` already materializes the vertex set.
                g = Some(Graph::with_capacity(vertices, edges));
                declared_edges = edges;
            }
            continue;
        }
        let Some(graph) = g.as_mut() else {
            return Err(PersistError::BadMagic {
                expected: STATE_MAGIC,
            });
        };
        let (u, v, k) = parse_uvk(t, lineno, "expected 'u v kappa'")?;
        if u as usize >= graph.num_vertices() || v as usize >= graph.num_vertices() {
            return Err(PersistError::BadRecord {
                line: lineno,
                reason: format!("vertex out of declared range: ({u}, {v})"),
            });
        }
        let e = graph
            .add_edge(VertexId(u), VertexId(v))
            .map_err(|err| match err {
                tkc_graph::GraphError::DuplicateEdge(..) => PersistError::DuplicateEdge {
                    line: lineno,
                    endpoints: (u, v),
                },
                other => PersistError::BadRecord {
                    line: lineno,
                    reason: other.to_string(),
                },
            })?;
        if kappa.len() <= e.index() {
            kappa.resize(e.index() + 1, 0);
        }
        kappa[e.index()] = k;
    }
    let graph = g.ok_or(PersistError::BadMagic {
        expected: STATE_MAGIC,
    })?;
    if graph.num_edges() != declared_edges {
        return Err(PersistError::Coverage {
            covered: graph.num_edges(),
            expected: declared_edges,
        });
    }
    kappa.resize(graph.edge_bound(), 0);
    Ok((graph, kappa, header))
}

/// The v3 replication watermarks a state file's header line declares
/// beyond the counts (zero for files that predate them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateHeader {
    /// WAL sequence number the snapshot covers through (compaction
    /// floor); 0 for v1/v2 files.
    pub seq: u64,
    /// Fencing term of the primary that wrote the snapshot; 0 for
    /// v1/v2 files and never-replicated engines.
    pub term: u64,
}

/// Extracts `vertices N; edges M` from a state header line (further
/// `;`-separated fields, like v3's `seq N`, may follow).
fn parse_state_counts(t: &str) -> Option<(usize, usize)> {
    let after = t.split_once("; vertices ")?.1;
    let (n, rest) = after.split_once("; edges ")?;
    let m = rest.split(';').next()?.trim();
    Some((n.trim().parse().ok()?, m.parse().ok()?))
}

/// Extracts an optional `<key> N` numeric header field (v3's `; seq N`
/// and `; term N`).
fn parse_header_u64(t: &str, key: &str) -> Option<u64> {
    let after = t.split_once(key)?.1;
    after.split(';').next()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::decompose::triangle_kcore_decomposition;
    use crate::dynamic::DynamicTriangleKCore;
    use tkc_graph::generators;

    #[test]
    fn roundtrip_preserves_kappa() {
        let g = generators::planted_partition(3, 8, 0.7, 0.1, 2);
        let d = triangle_kcore_decomposition(&g);
        let mut buf = Vec::new();
        write_kappa(&g, &d, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with(KAPPA_MAGIC), "magic header missing");
        let restored = read_kappa(&g, buf.as_slice()).unwrap();
        for e in g.edge_ids() {
            assert_eq!(restored[e.index()], d.kappa(e));
        }
    }

    #[test]
    fn restored_kappa_seeds_the_maintainer() {
        let g = generators::connected_caveman(3, 5);
        let d = triangle_kcore_decomposition(&g);
        let mut buf = Vec::new();
        write_kappa(&g, &d, &mut buf).unwrap();
        let kappa = read_kappa(&g, buf.as_slice()).unwrap();
        let mut m = DynamicTriangleKCore::from_parts(g, kappa);
        m.insert_edge(VertexId(0), VertexId(7)).unwrap();
        let fresh = triangle_kcore_decomposition(m.graph());
        for e in m.graph().edge_ids() {
            assert_eq!(m.kappa(e), fresh.kappa(e));
        }
    }

    #[test]
    fn rejects_incomplete_and_alien_files() {
        let g = generators::complete(4);
        let err = |r: Result<Vec<u32>, PersistError>| r.unwrap_err().to_string();
        assert!(err(read_kappa(&g, "0 1 2\n".as_bytes())).contains("covers 1 of 6"));
        assert!(err(read_kappa(&g, "0 9 2\n".as_bytes())).contains("not in graph"));
        assert!(err(read_kappa(&g, "0 1 2\n1 0 2\n".as_bytes())).contains("duplicate"));
        assert!(err(read_kappa(&g, "junk\n".as_bytes())).contains("expected"));
    }

    #[test]
    fn version_gate_accepts_v1_and_rejects_future() {
        let g = generators::complete(3);
        // Legacy v1 header (and headerless files) still read fine.
        let v1 = "# triangle-kcore kappa v1; edges 3\n0 1 1\n0 2 1\n1 2 1\n";
        assert!(read_kappa(&g, v1.as_bytes()).is_ok());
        // A future version is refused with a structured error.
        let v9 = "# triangle-kcore kappa v9; edges 3\n0 1 1\n0 2 1\n1 2 1\n";
        match read_kappa(&g, v9.as_bytes()) {
            Err(PersistError::UnsupportedVersion { format, found }) => {
                assert_eq!((format, found), ("kappa", 9));
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn state_roundtrip_rebuilds_graph_and_kappa() {
        let mut g = generators::planted_partition(2, 7, 0.8, 0.1, 9);
        // Punch a hole so dead edge slots exist in the writer's id space.
        let victim = g.edge_ids().nth(3).unwrap();
        g.remove_edge(victim).unwrap();
        let d = triangle_kcore_decomposition(&g);
        let mut buf = Vec::new();
        write_state(&g, d.kappa_slice(), &mut buf).unwrap();
        let (g2, kappa2) = read_state(buf.as_slice()).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        // Same κ per (u, v) pair, despite re-assigned edge ids.
        for (e, u, v) in g.edges() {
            let e2 = g2.edge_between(u, v).unwrap();
            assert_eq!(kappa2[e2.index()], d.kappa(e));
        }
        // The rebuilt pair seeds the maintainer consistently.
        let mut m = DynamicTriangleKCore::from_parts(g2, kappa2);
        m.insert_edge(VertexId(0), VertexId(12)).ok();
        let fresh = triangle_kcore_decomposition(m.graph());
        for e in m.graph().edge_ids() {
            assert_eq!(m.kappa(e), fresh.kappa(e));
        }
    }

    #[test]
    fn state_reader_requires_magic_and_matching_counts() {
        assert!(matches!(
            read_state("0 1 1\n".as_bytes()),
            Err(PersistError::BadMagic { .. })
        ));
        assert!(matches!(
            read_state("# triangle-kcore state v7; vertices 2; edges 1\n0 1 0\n".as_bytes()),
            Err(PersistError::UnsupportedVersion { found: 7, .. })
        ));
        let short = "# triangle-kcore state v1; vertices 3; edges 2\n0 1 0\n";
        assert!(matches!(
            read_state(short.as_bytes()),
            Err(PersistError::Coverage {
                covered: 1,
                expected: 2
            })
        ));
        let dup = "# triangle-kcore state v1; vertices 3; edges 2\n0 1 0\n1 0 0\n";
        assert!(matches!(
            read_state(dup.as_bytes()),
            Err(PersistError::DuplicateEdge { .. })
        ));
        let oob = "# triangle-kcore state v1; vertices 2; edges 1\n0 5 0\n";
        assert!(matches!(
            read_state(oob.as_bytes()),
            Err(PersistError::BadRecord { .. })
        ));
    }

    #[test]
    fn state_v3_seq_and_term_roundtrip_and_default_to_zero() {
        let g = generators::complete(3);
        let d = triangle_kcore_decomposition(&g);
        let mut buf = Vec::new();
        write_state_tagged(&g, d.kappa_slice(), 1234, 7, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("# triangle-kcore state v3"), "{text}");
        assert!(text.contains("; seq 1234; term 7"), "{text}");
        let (g2, _, header) = read_state_full(buf.as_slice()).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!((header.seq, header.term), (1234, 7));
        // A v2 header's store field is parsed past.
        let v2 = "# triangle-kcore state v2; vertices 2; edges 1; store cafe\n0 1 0\n";
        let (g2, _, header) = read_state_full(v2.as_bytes()).unwrap();
        assert_eq!(g2.num_edges(), 1);
        assert_eq!(header, StateHeader::default());
        // Pre-v3 headers read as zero watermarks.
        let v1 = "# triangle-kcore state v1; vertices 2; edges 1\n0 1 0\n";
        assert_eq!(read_state_full(v1.as_bytes()).unwrap().2.seq, 0);
        // Future versions are refused, headerless files rejected.
        let v9 = "# triangle-kcore state v9; vertices 2; edges 1\n0 1 0\n";
        assert!(matches!(
            read_state_full(v9.as_bytes()),
            Err(PersistError::UnsupportedVersion { found: 9, .. })
        ));
        assert!(matches!(
            read_state_full("0 1 0\n".as_bytes()),
            Err(PersistError::BadMagic { .. })
        ));
    }
}
