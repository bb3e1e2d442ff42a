//! The write-ahead op log: length-prefixed, checksummed, versioned binary
//! records of graph mutations, fsynced per batch.
//!
//! ## Record layout
//!
//! ```text
//! file   := magic floor? record*
//! magic  := "TKCWAL" 0x00 version(u8)            ; 8 bytes
//! floor  := len(u32 LE) crc(u32 LE) 0x04 seq(u64 LE)
//! record := len(u32 LE) crc(u32 LE) payload      ; len = payload bytes
//! payload:= 0x01 u(u32 LE) v(u32 LE)             ; insert edge {u, v}
//!         | 0x02 u(u32 LE) v(u32 LE)             ; remove edge {u, v}
//!         | 0x03 n(u32 LE)                       ; add n vertices
//! ```
//!
//! The optional `floor` record, written by [`Wal::reset_to`] right after
//! a compaction, says that the ops up to `seq` live in the packed store:
//! a log that carries one cannot be replayed without that store. It is
//! framed like any record and only valid first; anywhere else its tag is
//! unknown and the log is corrupt.
//!
//! `crc` is CRC-32 (IEEE) over the payload. Recovery reads records until
//! the first torn one — a length prefix or payload cut short by a crash,
//! or a checksum mismatch — and **truncates the file there**: a partially
//! flushed tail never poisons the log, and everything before it replays
//! exactly. A record whose checksum passes but whose content is
//! unintelligible (unknown tag, wrong field width) is a real error, not a
//! torn tail — it means version skew or external corruption, and recovery
//! refuses to guess.
//!
//! ## Storage abstraction
//!
//! The log never touches the filesystem directly: every byte flows
//! through a [`WalStorage`] (normally [`tkc_faults::DiskFile`], under
//! test a fault-injecting [`tkc_faults::FaultFile`]). Failures come back
//! as [`WalError`] — the underlying [`PersistError`] tagged with the
//! storage *site* that failed (`wal.open`, `wal.append`, `wal.fsync`,
//! `wal.truncate`), which is what the engine's degraded-mode reason and
//! the wire protocol report upward.
//!
//! Failed appends never advance the append position: the log's notion of
//! its valid length moves only after the batch is fully written *and*
//! (when configured) fsynced, so a torn batch is overwritten by the next
//! successful append or discarded by compaction.

use std::fmt;
use std::path::Path;
use std::sync::OnceLock;

use tkc_core::persist::PersistError;
use tkc_faults::{DiskFile, WalStorage};

/// File magic: `TKCWAL`, a NUL, then the format version byte.
///
/// Version 2 (replication): the record layout is byte-identical to v1 —
/// the monotonic sequence number every record carries for WAL shipping
/// is *implicit* (the compaction floor seq persisted in the store header
/// plus the record's 1-based position in the log), so no per-record
/// bytes changed. Version 3 adds the leading `floor` record (see the
/// module docs); op records are unchanged. v1 and v2 logs upgrade in
/// place on open: the version byte is rewritten and replay proceeds
/// (they carry no floor).
pub const WAL_MAGIC: [u8; 8] = *b"TKCWAL\x00\x03";

/// Record tag of the compaction floor (never an op).
const FLOOR_TAG: u8 = 4;

/// Hard upper bound on a record payload; anything larger is treated as a
/// torn length prefix (no legitimate op comes close).
const MAX_PAYLOAD: u32 = 64;

/// A WAL failure: *what* went wrong ([`PersistError`]) plus *where* in
/// the durability path it happened — the failpoint-site vocabulary shared
/// with `tkc-faults`, so an operator can line up an `ERR DEGRADED
/// wal.fsync` wire reply with the `--failpoint wal.fsync=eio@5` that
/// caused it.
#[derive(Debug)]
pub struct WalError {
    /// The storage site that failed (`wal.open`, `wal.append`,
    /// `wal.fsync`, `wal.truncate`).
    pub site: &'static str,
    /// The underlying failure.
    pub source: PersistError,
}

impl WalError {
    fn at(site: &'static str) -> impl FnOnce(std::io::Error) -> WalError {
        move |e| WalError {
            site,
            source: PersistError::Io(e),
        }
    }

    /// True when the failure is an injected crash latch (the simulated
    /// process is "dead" until the harness restarts it) — the recovery
    /// supervisor must not spin on these.
    pub fn is_injected_crash(&self) -> bool {
        matches!(&self.source, PersistError::Io(e) if tkc_faults::is_injected_crash(e))
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.site, self.source)
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// One durable graph mutation.
///
/// Ops name vertices, never edge ids — replay is therefore independent of
/// the id-allocation history of the process that wrote the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// Insert edge `{u, v}` (idempotent at apply time: duplicates and self
    /// loops are skipped, and missing endpoints are created).
    Insert(u32, u32),
    /// Remove edge `{u, v}` (skipped when absent).
    Remove(u32, u32),
    /// Grow the vertex set by `n` isolated vertices.
    AddVertices(u32),
}

impl WalOp {
    /// Appends the full record (len | crc | payload) for this op. Also
    /// used by the replication codec to embed records in OPS frames.
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        let mut payload = [0u8; 9];
        let (tag, args) = payload.split_at_mut(1);
        let (a, b) = args.split_at_mut(4);
        let used = match self {
            WalOp::Insert(u, v) => {
                tag.copy_from_slice(&[1]);
                a.copy_from_slice(&u.to_le_bytes());
                b.copy_from_slice(&v.to_le_bytes());
                9
            }
            WalOp::Remove(u, v) => {
                tag.copy_from_slice(&[2]);
                a.copy_from_slice(&u.to_le_bytes());
                b.copy_from_slice(&v.to_le_bytes());
                9
            }
            WalOp::AddVertices(n) => {
                tag.copy_from_slice(&[3]);
                a.copy_from_slice(&n.to_le_bytes());
                5
            }
        };
        push_frame(out, payload.get(..used).unwrap_or(payload.as_slice()));
    }

    fn decode(payload: &[u8], offset: u64) -> Result<WalOp, PersistError> {
        let field = |i: usize| -> Result<u32, PersistError> {
            payload
                .get(1 + i * 4..1 + i * 4 + 4)
                .and_then(|b| b.try_into().ok())
                .map(u32::from_le_bytes)
                .ok_or_else(|| PersistError::Corrupt {
                    offset,
                    reason: "payload shorter than its tag demands".to_string(),
                })
        };
        match payload.first() {
            Some(1) if payload.len() == 9 => Ok(WalOp::Insert(field(0)?, field(1)?)),
            Some(2) if payload.len() == 9 => Ok(WalOp::Remove(field(0)?, field(1)?)),
            Some(3) if payload.len() == 5 => Ok(WalOp::AddVertices(field(0)?)),
            Some(tag) => Err(PersistError::Corrupt {
                offset,
                reason: format!("unknown or mis-sized record tag {tag}"),
            }),
            None => Err(PersistError::Corrupt {
                offset,
                reason: "empty payload".to_string(),
            }),
        }
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every intact record, in append order.
    pub ops: Vec<WalOp>,
    /// Bytes of torn tail dropped (0 after a clean shutdown).
    pub torn_bytes: u64,
    /// The compaction floor the log starts from ([`Wal::reset_to`]):
    /// `Some(seq)` means the ops up to `seq` are in the packed store, so
    /// the log is only meaningful on top of it. `None` for a fresh log.
    pub floor_seq: Option<u64>,
}

/// Byte and timing accounting for one [`Wal::append_with`] call, fed to
/// the engine's WAL metrics (this module stays observability-agnostic).
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendInfo {
    /// Encoded bytes written for the batch.
    pub bytes: u64,
    /// Time spent inside `sync_data` (zero with fsync off).
    pub fsync: std::time::Duration,
}

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub struct Wal {
    storage: Box<dyn WalStorage>,
    /// Valid byte length — the append position.
    len: u64,
    fsync: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` on the real
    /// filesystem, replaying every intact record and truncating any torn
    /// tail. `fsync` controls whether each appended batch is flushed to
    /// stable storage before [`Wal::append`] returns.
    pub fn open(path: &Path, fsync: bool) -> Result<(Wal, Recovery), WalError> {
        let disk = DiskFile::open(path).map_err(WalError::at("wal.open"))?;
        Wal::open_with(Box::new(disk), fsync)
    }

    /// [`Wal::open`] over an arbitrary [`WalStorage`] — the seam the
    /// fault-injection harness plugs into.
    pub fn open_with(
        mut storage: Box<dyn WalStorage>,
        fsync: bool,
    ) -> Result<(Wal, Recovery), WalError> {
        let buf = storage.read_all().map_err(WalError::at("wal.open"))?;

        if buf.is_empty() {
            storage
                .write_at(0, &WAL_MAGIC)
                .map_err(WalError::at("wal.append"))?;
            if fsync {
                storage.sync().map_err(WalError::at("wal.fsync"))?;
            }
            let wal = Wal {
                storage,
                len: WAL_MAGIC.len() as u64,
                fsync,
            };
            return Ok((wal, Recovery::default()));
        }
        let (magic_head, magic_tail) = WAL_MAGIC.split_at(7);
        if buf.len() < WAL_MAGIC.len() || buf.get(..7) != Some(magic_head) {
            return Err(WalError {
                site: "wal.open",
                source: PersistError::BadMagic { expected: "TKCWAL" },
            });
        }
        let version = buf.get(7).copied().unwrap_or(0);
        if version != 0 && magic_tail.first().is_some_and(|&current| version < current) {
            // Upgrade-on-open: older records are byte-identical, only the
            // version byte moves. Rewrite the header and carry on.
            storage
                .write_at(0, &WAL_MAGIC)
                .map_err(WalError::at("wal.append"))?;
            storage.sync().map_err(WalError::at("wal.fsync"))?;
        } else if magic_tail.first() != Some(&version) {
            return Err(WalError {
                site: "wal.open",
                source: PersistError::UnsupportedVersion {
                    format: "wal",
                    found: u32::from(version),
                },
            });
        }

        let mut ops = Vec::new();
        let mut off = WAL_MAGIC.len();
        let mut floor_seq = None;
        if let Framed::Payload(payload, next) = read_frame(&buf, off) {
            if let Some(seq) = decode_floor(payload) {
                floor_seq = Some(seq);
                off = next;
            }
        }
        loop {
            match read_record(&buf, off).map_err(|source| WalError {
                site: "wal.open",
                source,
            })? {
                RecordAt::Op(op, next) => {
                    ops.push(op);
                    off = next;
                }
                RecordAt::End => break,
                RecordAt::Torn => break,
            }
        }
        let torn_bytes = (buf.len() - off) as u64;
        if torn_bytes > 0 {
            storage
                .set_len(off as u64)
                .map_err(WalError::at("wal.truncate"))?;
            storage.sync().map_err(WalError::at("wal.fsync"))?;
        }
        let wal = Wal {
            storage,
            len: off as u64,
            fsync,
        };
        Ok((
            wal,
            Recovery {
                ops,
                torn_bytes,
                floor_seq,
            },
        ))
    }

    /// Appends a batch of ops as one write, then (if configured) fsyncs —
    /// the batch is durable when this returns.
    pub fn append(&mut self, ops: &[WalOp]) -> Result<(), WalError> {
        self.append_with(ops).map(|_| ())
    }

    /// [`Wal::append`] returning byte/fsync accounting for the batch.
    pub fn append_with(&mut self, ops: &[WalOp]) -> Result<AppendInfo, WalError> {
        if ops.is_empty() {
            return Ok(AppendInfo::default());
        }
        let mut buf = Vec::with_capacity(ops.len() * 17);
        for &op in ops {
            op.encode(&mut buf);
        }
        self.storage
            .write_at(self.len, &buf)
            .map_err(WalError::at("wal.append"))?;
        let mut fsync = std::time::Duration::ZERO;
        if self.fsync {
            let start = std::time::Instant::now();
            self.storage.sync().map_err(WalError::at("wal.fsync"))?;
            fsync = start.elapsed();
        }
        self.len += buf.len() as u64;
        Ok(AppendInfo {
            bytes: buf.len() as u64,
            fsync,
        })
    }

    /// Current log size in bytes (header included) — the compaction
    /// trigger input.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Drops every record, leaving just the header: the log then reads
    /// as a fresh one.
    pub fn reset(&mut self) -> Result<(), WalError> {
        self.storage
            .set_len(WAL_MAGIC.len() as u64)
            .map_err(WalError::at("wal.truncate"))?;
        self.len = WAL_MAGIC.len() as u64;
        self.storage.sync().map_err(WalError::at("wal.fsync"))?;
        Ok(())
    }

    /// [`Wal::reset`], then records `floor_seq` as the log's floor —
    /// called once the ops up to `floor_seq` are durable in the packed
    /// store, so a later open knows the log needs that store. A crash
    /// before the floor is synced leaves a log with no floor (or a torn
    /// one, dropped on open), which replays as before.
    pub fn reset_to(&mut self, floor_seq: u64) -> Result<(), WalError> {
        self.reset()?;
        let mut payload = [FLOOR_TAG; 9];
        if let Some(seq) = payload.get_mut(1..) {
            seq.copy_from_slice(&floor_seq.to_le_bytes());
        }
        let mut buf = Vec::with_capacity(8 + payload.len());
        push_frame(&mut buf, &payload);
        self.storage
            .write_at(self.len, &buf)
            .map_err(WalError::at("wal.append"))?;
        self.storage.sync().map_err(WalError::at("wal.fsync"))?;
        self.len += buf.len() as u64;
        Ok(())
    }
}

pub(crate) enum RecordAt {
    Op(WalOp, usize),
    End,
    Torn,
}

/// Appends `len | crc | payload` — the framing every record shares.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One checksummed frame: its payload and the offset after it.
enum Framed<'a> {
    Payload(&'a [u8], usize),
    End,
    Torn,
}

/// Reads the length/crc frame at `off`: a clean end, a torn tail (cut
/// short, garbage length, or checksum mismatch), or an intact payload.
fn read_frame(buf: &[u8], off: usize) -> Framed<'_> {
    if off == buf.len() {
        return Framed::End;
    }
    let Some(header) = buf.get(off..off + 8) else {
        return Framed::Torn; // length/crc prefix cut short
    };
    let (len_bytes, crc_bytes) = header.split_at(4);
    let len = u32::from_le_bytes(len_bytes.try_into().unwrap_or([0; 4]));
    if len == 0 || len > MAX_PAYLOAD {
        return Framed::Torn; // garbage length: interrupted write
    }
    let crc = u32::from_le_bytes(crc_bytes.try_into().unwrap_or([0; 4]));
    let Some(payload) = buf.get(off + 8..off + 8 + len as usize) else {
        return Framed::Torn; // payload cut short
    };
    if crc32(payload) != crc {
        return Framed::Torn; // partially flushed payload
    }
    Framed::Payload(payload, off + 8 + len as usize)
}

/// The floor seq of an intact `floor` payload, or `None` for any other.
fn decode_floor(payload: &[u8]) -> Option<u64> {
    match payload.split_first() {
        Some((&FLOOR_TAG, seq)) => seq.try_into().ok().map(u64::from_le_bytes),
        _ => None,
    }
}

/// Reads the op record at `off`; distinguishes a clean end, a torn tail,
/// and genuinely corrupt (non-tail) content. Shared with the replication
/// frame codec, which embeds runs of these records in its OPS frames.
pub(crate) fn read_record(buf: &[u8], off: usize) -> Result<RecordAt, PersistError> {
    match read_frame(buf, off) {
        Framed::Payload(payload, next) => {
            Ok(RecordAt::Op(WalOp::decode(payload, off as u64)?, next))
        }
        Framed::End => Ok(RecordAt::End),
        Framed::Torn => Ok(RecordAt::Torn),
    }
}

/// CRC-32 (IEEE 802.3) with a lazily built lookup table. Shared with the
/// replication frame codec so the wire and the log agree on checksums.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        #[allow(clippy::indexing_slicing)]
        {
            // analyze: allow(panic-surface): u8-derived index into a 256-entry table is always in bounds
            c = table[usize::from((c as u8) ^ b)] ^ (c >> 8);
        }
    }
    !c
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;
    use std::sync::Arc;
    use tkc_faults::{Failpoint, FaultFile, FaultKind, FaultPlan, FaultSite};

    fn temp_wal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tkc_engine_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        path
    }

    const SCRIPT: [WalOp; 5] = [
        WalOp::AddVertices(6),
        WalOp::Insert(0, 1),
        WalOp::Insert(1, 2),
        WalOp::Remove(0, 1),
        WalOp::Insert(2, 0),
    ];

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let path = temp_wal("roundtrip.wal");
        let (mut wal, rec) = Wal::open(&path, true).unwrap();
        assert!(rec.ops.is_empty());
        wal.append(&SCRIPT[..2]).unwrap();
        wal.append(&SCRIPT[2..]).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path, true).unwrap();
        assert_eq!(rec.ops, SCRIPT);
        assert_eq!(rec.torn_bytes, 0);
    }

    #[test]
    fn every_torn_prefix_recovers_a_record_prefix() {
        let path = temp_wal("torn.wal");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.append(&SCRIPT).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        for cut in WAL_MAGIC.len()..full.len() {
            let torn_path = temp_wal("torn_cut.wal");
            std::fs::write(&torn_path, &full[..cut]).unwrap();
            let (wal, rec) = Wal::open(&torn_path, false).unwrap();
            // Recovered ops are exactly a prefix of what was written...
            assert_eq!(rec.ops, SCRIPT[..rec.ops.len()], "cut at {cut}");
            // ...and the file was truncated back to the last intact record.
            assert_eq!(
                wal.len_bytes(),
                std::fs::metadata(&torn_path).unwrap().len(),
                "cut at {cut}"
            );
            assert_eq!(rec.torn_bytes, (cut as u64) - wal.len_bytes());
        }
    }

    #[test]
    fn torn_tail_is_overwritten_by_later_appends() {
        let path = temp_wal("resume.wal");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.append(&SCRIPT).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap(); // tear last record
        let (mut wal, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(rec.ops, SCRIPT[..SCRIPT.len() - 1]);
        wal.append(&[WalOp::Insert(4, 5)]).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path, false).unwrap();
        let mut expected = SCRIPT[..SCRIPT.len() - 1].to_vec();
        expected.push(WalOp::Insert(4, 5));
        assert_eq!(rec.ops, expected);
    }

    #[test]
    fn flipped_payload_byte_truncates_from_there() {
        let path = temp_wal("bitflip.wal");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.append(&SCRIPT).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the payload of the second record (header 8 + record 17 +
        // 8 bytes into the next record's payload region).
        let idx = WAL_MAGIC.len() + 17 + 8 + 2;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(rec.ops, SCRIPT[..1]);
        assert!(rec.torn_bytes > 0);
    }

    #[test]
    fn alien_files_are_rejected_not_truncated() {
        let path = temp_wal("alien.wal");
        std::fs::write(&path, b"not a wal at all").unwrap();
        let err = Wal::open(&path, false).unwrap_err();
        assert_eq!(err.site, "wal.open");
        assert!(matches!(err.source, PersistError::BadMagic { .. }));
        let mut future = WAL_MAGIC;
        future[7] = 9;
        std::fs::write(&path, future).unwrap();
        let err = Wal::open(&path, false).unwrap_err();
        assert!(matches!(
            err.source,
            PersistError::UnsupportedVersion { found: 9, .. }
        ));
    }

    #[test]
    fn v1_logs_upgrade_in_place_on_open() {
        let path = temp_wal("upgrade_v1.wal");
        // Author a v1 log by hand: old magic, then the same record bytes.
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.append(&SCRIPT).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] = 1;
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(rec.ops, SCRIPT, "v1 records must replay unchanged");
        assert_eq!(rec.torn_bytes, 0);
        let upgraded = std::fs::read(&path).unwrap();
        assert_eq!(upgraded[..8], WAL_MAGIC, "header must be rewritten to v2");
    }

    #[test]
    fn valid_checksum_with_unknown_tag_is_corrupt_not_torn() {
        let path = temp_wal("unknown_tag.wal");
        let mut bytes = WAL_MAGIC.to_vec();
        let payload = [9u8, 0, 0, 0, 0]; // tag 9, one u32 field
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&path, false).unwrap_err();
        assert_eq!(err.site, "wal.open");
        assert!(matches!(err.source, PersistError::Corrupt { .. }));
    }

    #[test]
    fn reset_leaves_an_empty_replayable_log() {
        let path = temp_wal("reset.wal");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.append(&SCRIPT).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.len_bytes(), WAL_MAGIC.len() as u64);
        wal.append(&[WalOp::Insert(7, 8)]).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(rec.ops, vec![WalOp::Insert(7, 8)]);
    }

    #[test]
    fn reset_to_records_the_floor_before_later_ops() {
        let path = temp_wal("floor.wal");
        let (mut wal, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(rec.floor_seq, None, "a fresh log has no floor");
        wal.append(&SCRIPT).unwrap();
        wal.reset_to(41).unwrap();
        wal.append(&[WalOp::Insert(7, 8)]).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(rec.floor_seq, Some(41));
        assert_eq!(rec.ops, vec![WalOp::Insert(7, 8)]);
        assert_eq!(rec.torn_bytes, 0);
        // A torn floor record is a torn tail: dropped, and no floor.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..WAL_MAGIC.len() + 10]).unwrap();
        let (_, rec) = Wal::open(&path, false).unwrap();
        assert_eq!((rec.floor_seq, rec.ops.len()), (None, 0));
    }

    #[test]
    fn v2_logs_open_without_a_floor_and_upgrade() {
        let path = temp_wal("upgrade_v2.wal");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.append(&SCRIPT).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] = 2;
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Wal::open(&path, false).unwrap();
        assert_eq!((rec.ops.as_slice(), rec.floor_seq), (&SCRIPT[..], None));
        assert_eq!(std::fs::read(&path).unwrap()[..8], WAL_MAGIC);
    }

    #[test]
    fn a_floor_record_after_an_op_is_corrupt() {
        let path = temp_wal("late_floor.wal");
        let (mut wal, _) = Wal::open(&path, false).unwrap();
        wal.reset_to(3).unwrap();
        drop(wal);
        let floor = std::fs::read(&path).unwrap()[WAL_MAGIC.len()..].to_vec();
        let mut bytes = WAL_MAGIC.to_vec();
        WalOp::Insert(0, 1).encode(&mut bytes);
        bytes.extend_from_slice(&floor);
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&path, false).unwrap_err();
        assert!(matches!(err.source, PersistError::Corrupt { .. }));
    }

    fn faulted_wal(path: &std::path::Path, points: Vec<Failpoint>) -> (Wal, Arc<FaultPlan>) {
        let plan = Arc::new(FaultPlan::with_points(points, 99));
        let disk = DiskFile::open(path).unwrap();
        let storage = FaultFile::new(Box::new(disk), Arc::clone(&plan));
        let (wal, _) = Wal::open_with(Box::new(storage), true).unwrap();
        (wal, plan)
    }

    #[test]
    fn injected_enospc_fails_append_without_advancing() {
        let path = temp_wal("inject_enospc.wal");
        // Trigger 2 so the magic-header write (append invocation 1) lands.
        let (mut wal, plan) = faulted_wal(
            &path,
            vec![Failpoint {
                site: FaultSite::Append,
                kind: FaultKind::Enospc,
                trigger: 2,
                count: 1,
            }],
        );
        let before = wal.len_bytes();
        let err = wal.append(&SCRIPT[..2]).unwrap_err();
        assert_eq!(err.site, "wal.append");
        assert_eq!(wal.len_bytes(), before, "failed append advanced the log");
        assert_eq!(plan.injected_total(), 1);
        // The log stays usable once the failpoint is spent.
        wal.append(&SCRIPT).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(rec.ops, SCRIPT);
    }

    #[test]
    fn injected_short_write_recovers_a_prefix_on_reopen() {
        let path = temp_wal("inject_short.wal");
        let (mut wal, _plan) = faulted_wal(
            &path,
            vec![Failpoint {
                site: FaultSite::Append,
                kind: FaultKind::ShortWrite,
                trigger: 3, // magic, first batch, then tear the second
                count: 1,
            }],
        );
        wal.append(&SCRIPT[..2]).unwrap();
        let err = wal.append(&SCRIPT[2..]).unwrap_err();
        assert_eq!(err.site, "wal.append");
        drop(wal);
        // Plain reopen: the torn batch truncates away; acked ops survive.
        let (_, rec) = Wal::open(&path, false).unwrap();
        assert!(rec.ops.len() >= 2, "acked records lost: {:?}", rec.ops);
        assert_eq!(rec.ops[..], SCRIPT[..rec.ops.len()]);
    }

    #[test]
    fn injected_fsync_failure_is_site_tagged() {
        let path = temp_wal("inject_fsync.wal");
        let (mut wal, _plan) = faulted_wal(
            &path,
            vec![Failpoint {
                site: FaultSite::Fsync,
                kind: FaultKind::Eio,
                trigger: 2, // survive the header fsync, fail the batch's
                count: 1,
            }],
        );
        let err = wal.append(&SCRIPT[..2]).unwrap_err();
        assert_eq!(err.site, "wal.fsync");
        assert!(!err.is_injected_crash());
    }

    #[test]
    fn injected_crash_latch_is_recognizable_and_survivable() {
        let path = temp_wal("inject_crash.wal");
        let (mut wal, plan) = faulted_wal(
            &path,
            vec![Failpoint {
                site: FaultSite::Append,
                kind: FaultKind::Crash,
                trigger: 30, // tear mid-way through the first record batch
                count: 1,
            }],
        );
        let err = wal.append(&SCRIPT).unwrap_err();
        assert!(err.is_injected_crash(), "got {err}");
        // Still "dead": reopening through the same plan fails too.
        let disk = DiskFile::open(&path).unwrap();
        let dead = FaultFile::new(Box::new(disk), Arc::clone(&plan));
        assert!(Wal::open_with(Box::new(dead), false)
            .unwrap_err()
            .is_injected_crash());
        // Restart: recovery truncates the torn tail and replays the rest.
        plan.clear_crash();
        let (_, rec) = Wal::open(&path, false).unwrap();
        assert_eq!(rec.ops[..], SCRIPT[..rec.ops.len()]);
        assert!(
            rec.torn_bytes > 0,
            "expected a torn tail at the crash offset"
        );
    }
}
