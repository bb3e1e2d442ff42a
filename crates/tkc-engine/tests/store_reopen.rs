#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! The store is the engine's only snapshot: compaction writes one
//! `TKCSTOR` file carrying the WAL seq and fencing term, and
//! `Engine::open` rebuilds from its binary sections with the WAL on top.
//! Directories the engine does not open — a text `state.tkc` with no
//! store, a version-1 store — must fail structurally and name the
//! import, `tkc store pack <dir>`.

use std::path::{Path, PathBuf};

use tkc_engine::{import_text_snapshot, Engine, EngineConfig, EngineError, WalOp};
use tkc_engine::{STATE_FILE, STORE_FILE};
use tkc_graph::generators;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("tkc_store_reopen_tests")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn raw_config(dir: PathBuf) -> EngineConfig {
    EngineConfig {
        fsync: false,
        epoch_ops: 0,
        compact_bytes: 0,
        ..EngineConfig::new(dir)
    }
}

/// Seed graph + a removal churn, as WAL ops (leaves dead edge slots so
/// the store's sentinel handling is actually exercised).
fn churned_ops() -> Vec<WalOp> {
    let g = generators::planted_partition(4, 12, 0.8, 0.1, 9);
    let mut ops = Vec::new();
    ops.push(WalOp::AddVertices(g.num_vertices() as u32));
    for e in g.edge_ids() {
        let (u, v) = g.endpoints(e);
        ops.push(WalOp::Insert(u.index() as u32, v.index() as u32));
    }
    for (i, e) in g.edge_ids().enumerate() {
        if i % 5 == 0 {
            let (u, v) = g.endpoints(e);
            ops.push(WalOp::Remove(u.index() as u32, v.index() as u32));
        }
    }
    ops
}

/// (vertices, live edges, sorted (u, v, κ) triples) — id-independent
/// identity of an engine's published state.
fn fingerprint(engine: &Engine) -> (usize, usize, Vec<(u32, u32, u32)>) {
    engine.publish();
    let snap = engine.snapshot();
    let g = snap.graph();
    let mut triples: Vec<(u32, u32, u32)> = g
        .edge_ids()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            (u.0.min(v.0), u.0.max(v.0), snap.decomposition().kappa(e))
        })
        .collect();
    triples.sort_unstable();
    (g.num_vertices(), g.num_edges(), triples)
}

/// Writes the engine's published state as a text `state.tkc` with the
/// given header watermarks (what an export, or an older build, left).
fn write_text_state(engine: &Engine, dir: &Path, seq: u64, term: u64) {
    engine.publish();
    let snap = engine.snapshot();
    let file = std::fs::File::create(dir.join(STATE_FILE)).unwrap();
    tkc_core::persist::write_state_tagged(
        snap.graph(),
        snap.decomposition().kappa_slice(),
        seq,
        term,
        file,
    )
    .unwrap();
}

fn assert_needs_import(dir: &Path) -> String {
    match Engine::open(raw_config(dir.to_path_buf())) {
        Err(e @ EngineError::NeedsImport { .. }) => {
            let msg = e.to_string();
            let want = format!("tkc store pack {}", dir.display());
            assert!(msg.contains(&want), "error must name the import: {msg}");
            msg
        }
        Err(other) => panic!("expected NeedsImport, got {other}"),
        Ok(_) => panic!("open must refuse {}", dir.display()),
    }
}

/// Rewrites a current store into the version-1 layout: a 48-byte header
/// without `seq`/`term`, section offsets 16 bytes lower, same payloads.
fn downgrade_to_v1(v2: &[u8]) -> Vec<u8> {
    use tkc_store::crc::crc32;
    let count = u32::from_le_bytes(v2[36..40].try_into().unwrap()) as usize;
    let mut head = v2[..40].to_vec();
    head[7] = 1;
    head.extend_from_slice(&0u32.to_le_bytes());
    let crc = crc32(&head);
    head.extend_from_slice(&crc.to_le_bytes());
    let mut table = v2[64..64 + count * 24].to_vec();
    for entry in table.chunks_exact_mut(24) {
        let off = u64::from_le_bytes(entry[4..12].try_into().unwrap()) - 16;
        entry[4..12].copy_from_slice(&off.to_le_bytes());
    }
    let crc = crc32(&table);
    table.extend_from_slice(&crc.to_le_bytes());
    let mut out = head;
    out.extend_from_slice(&table);
    out.extend_from_slice(&v2[64 + count * 24 + 4..]);
    out
}

#[test]
fn compact_writes_store_and_reopen_uses_it() {
    let dir = temp_dir("fast_path");
    let before = {
        let engine = Engine::open(raw_config(dir.clone())).unwrap();
        engine.apply(&churned_ops()).unwrap();
        engine.compact().unwrap();
        fingerprint(&engine)
    };
    assert!(
        dir.join(STORE_FILE).exists(),
        "compaction must pack a store"
    );
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, [STORE_FILE, "wal.log"], "one snapshot file, no tmp");

    let engine = Engine::open(raw_config(dir.clone())).unwrap();
    assert_eq!(fingerprint(&engine), before, "store reopen changed state");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_ops_after_compaction_replay_on_top_of_store() {
    let dir = temp_dir("wal_on_top");
    {
        let engine = Engine::open(raw_config(dir.clone())).unwrap();
        engine.apply(&churned_ops()).unwrap();
        engine.compact().unwrap();
        // Post-compaction ops land in the WAL only.
        engine
            .apply(&[WalOp::Insert(0, 47), WalOp::Remove(1, 2)])
            .unwrap();
    }
    let reopened = Engine::open(raw_config(dir.clone())).unwrap();
    assert_eq!(reopened.metrics().recovery_replays.get(), 2);
    let expected = {
        // Same history replayed WAL-only (no compaction) — the oracle.
        let dir2 = temp_dir("wal_on_top_oracle");
        let oracle = Engine::open(raw_config(dir2.clone())).unwrap();
        let mut ops = churned_ops();
        ops.push(WalOp::Insert(0, 47));
        ops.push(WalOp::Remove(1, 2));
        oracle.apply(&ops).unwrap();
        let f = fingerprint(&oracle);
        std::fs::remove_dir_all(&dir2).ok();
        f
    };
    assert_eq!(fingerprint(&reopened), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_or_corrupt_store_blocks_open_structurally() {
    let dir = temp_dir("mismatch");
    {
        let engine = Engine::open(raw_config(dir.clone())).unwrap();
        engine.apply(&churned_ops()).unwrap();
        engine.compact().unwrap();
        write_text_state(&engine, &dir, 0, 0);
    }

    // Deleted store next to a text snapshot: refuse and name the import.
    let store = dir.join(STORE_FILE);
    let bytes = std::fs::read(&store).unwrap();
    std::fs::remove_file(&store).unwrap();
    let err = assert_needs_import(&dir);
    assert!(err.contains(STATE_FILE), "missing store: got {err}");
    std::fs::remove_file(dir.join(STATE_FILE)).unwrap();

    // Corrupted store (flip a κ payload byte): its crc check fails.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0xff;
    std::fs::write(&store, &flipped).unwrap();
    let err = Engine::open(raw_config(dir.clone()))
        .unwrap_err()
        .to_string();
    assert!(err.contains("checksum"), "corrupt store: got {err}");

    // Restored byte-identical store: opens again.
    std::fs::write(&store, &bytes).unwrap();
    Engine::open(raw_config(dir.clone())).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn text_only_directory_needs_import() {
    let dir = temp_dir("text_only");
    std::fs::create_dir_all(&dir).unwrap();
    let before = {
        let src = Engine::open(raw_config(temp_dir("text_only_src"))).unwrap();
        src.apply(&churned_ops()).unwrap();
        write_text_state(&src, &dir, 5, 2);
        fingerprint(&src)
    };
    assert_needs_import(&dir);
    assert!(
        !dir.join(STORE_FILE).exists(),
        "a refused open writes nothing"
    );

    import_text_snapshot(&dir).unwrap();
    let engine = Engine::open(raw_config(dir.clone())).unwrap();
    assert_eq!((engine.applied_seq(), engine.term()), (5, 2));
    assert_eq!(fingerprint(&engine), before);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(temp_dir("text_only_src")).ok();
}

#[test]
fn version_one_store_needs_import() {
    let dir = temp_dir("v1_store");
    let before = {
        let engine = Engine::open(raw_config(dir.clone())).unwrap();
        engine.apply(&churned_ops()).unwrap();
        engine.compact().unwrap();
        // What an older build left: a stamped text snapshot next to a
        // version-1 store of the same state.
        write_text_state(&engine, &dir, 9, 4);
        fingerprint(&engine)
    };
    let state = dir.join(STATE_FILE);
    let text = std::fs::read_to_string(&state).unwrap();
    let stamped = text.replacen("; seq ", "; store 1234abcd; seq ", 1);
    std::fs::write(&state, stamped).unwrap();
    let store = dir.join(STORE_FILE);
    let v1 = downgrade_to_v1(&std::fs::read(&store).unwrap());
    std::fs::write(&store, &v1).unwrap();

    let err = assert_needs_import(&dir);
    assert!(err.contains("version 1"), "v1 store: got {err}");

    import_text_snapshot(&dir).unwrap();
    let engine = Engine::open(raw_config(dir.clone())).unwrap();
    assert_eq!((engine.applied_seq(), engine.term()), (9, 4));
    assert_eq!(fingerprint(&engine), before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn first_compaction_after_import_removes_the_text_snapshot() {
    let dir = temp_dir("import_then_compact");
    std::fs::create_dir_all(&dir).unwrap();
    {
        let src = Engine::open(raw_config(temp_dir("import_src"))).unwrap();
        src.apply(&churned_ops()).unwrap();
        write_text_state(&src, &dir, 7, 3);
    }
    import_text_snapshot(&dir).unwrap();
    // The import leaves the text in place, so importing twice is safe.
    assert!(dir.join(STATE_FILE).exists());
    import_text_snapshot(&dir).unwrap();

    let expected = {
        let engine = Engine::open(raw_config(dir.clone())).unwrap();
        assert_eq!((engine.applied_seq(), engine.term()), (7, 3));
        engine.apply(&[WalOp::Insert(0, 47)]).unwrap();
        engine.compact().unwrap();
        assert!(
            !dir.join(STATE_FILE).exists(),
            "compaction must delete the superseded text snapshot"
        );
        fingerprint(&engine)
    };
    let engine = Engine::open(raw_config(dir.clone())).unwrap();
    assert_eq!((engine.applied_seq(), engine.term()), (8, 3));
    assert_eq!(engine.metrics().recovery_replays.get(), 0);
    assert_eq!(fingerprint(&engine), expected);
    // With the text gone, a later pack cannot roll the store back.
    assert!(import_text_snapshot(&dir).is_err());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(temp_dir("import_src")).ok();
}

#[test]
fn leftover_tmp_store_from_a_crash_is_ignored() {
    let dir = temp_dir("leftover_tmp");
    let tail = [WalOp::Insert(0, 47), WalOp::Remove(1, 2)];
    {
        let engine = Engine::open(raw_config(dir.clone())).unwrap();
        engine.apply(&churned_ops()).unwrap();
        engine.compact().unwrap();
        engine.apply(&tail).unwrap();
    }
    // A crash mid-compaction: a half-written store sits at the tmp path.
    let store = std::fs::read(dir.join(STORE_FILE)).unwrap();
    let tmp = dir.join("state.tkcstor.tmp");
    std::fs::write(&tmp, &store[..store.len() / 2]).unwrap();

    let expected = {
        let dir2 = temp_dir("leftover_tmp_oracle");
        let oracle = Engine::open(raw_config(dir2.clone())).unwrap();
        let mut ops = churned_ops();
        ops.extend_from_slice(&tail);
        oracle.apply(&ops).unwrap();
        let f = (oracle.applied_seq(), fingerprint(&oracle));
        std::fs::remove_dir_all(&dir2).ok();
        f
    };
    let engine = Engine::open(raw_config(dir.clone())).unwrap();
    assert_eq!(engine.metrics().recovery_replays.get(), 2);
    assert_eq!((engine.applied_seq(), fingerprint(&engine)), expected);
    // The next compaction overwrites the leftover and renames it away.
    engine.compact().unwrap();
    assert!(!tmp.exists());
    drop(engine);
    let engine = Engine::open(raw_config(dir.clone())).unwrap();
    assert_eq!((engine.applied_seq(), fingerprint(&engine)), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deleted_store_after_compaction_refuses_to_open() {
    let dir = temp_dir("deleted_store");
    {
        let engine = Engine::open(raw_config(dir.clone())).unwrap();
        engine
            .apply(&[
                WalOp::Insert(0, 1),
                WalOp::Insert(1, 2),
                WalOp::Insert(0, 2),
                WalOp::Insert(2, 3),
            ])
            .unwrap();
        engine.compact().unwrap();
    }
    let store = dir.join(STORE_FILE);
    let bytes = std::fs::read(&store).unwrap();
    std::fs::remove_file(&store).unwrap();
    match Engine::open(raw_config(dir.clone())) {
        Err(e) => {
            assert_eq!(e.wire_token(), "PERSIST", "got {e:?}");
            let msg = e.to_string();
            assert!(msg.contains(STORE_FILE), "error must name the store: {msg}");
            assert!(msg.contains("seq 4"), "error must name the floor: {msg}");
        }
        Ok(engine) => panic!(
            "a compacted dir without its store opened with {} edges",
            engine.snapshot().num_edges()
        ),
    }
    // The store the compaction wrote brings it back, WAL floor and all.
    std::fs::write(&store, &bytes).unwrap();
    let engine = Engine::open(raw_config(dir.clone())).unwrap();
    assert_eq!(engine.snapshot().num_edges(), 4);
    assert_eq!(engine.applied_seq(), 4);
    std::fs::remove_dir_all(&dir).ok();
}
