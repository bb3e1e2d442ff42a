#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! `tkc store pack <dir>` imports a text `state.tkc` into the engine's
//! store and must carry the header's replication position with it: a
//! promoted node that forgot its fencing term could be fenced by a
//! stale primary. `tkc store info` then reports the packed file.

use std::process::Command;

use tkc_core::decompose::triangle_kcore_decomposition;
use tkc_core::persist::write_state;
use tkc_engine::{Engine, EngineConfig, STATE_FILE, STORE_FILE};
use tkc_graph::generators;

#[test]
fn pack_dir_keeps_seq_and_term() {
    let dir = std::env::temp_dir().join("tkc_cli_store_pack_seq_term");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let g = generators::planted_partition(3, 8, 0.7, 0.1, 2);
    let d = triangle_kcore_decomposition(&g);
    let mut text = Vec::new();
    write_state(&g, d.kappa_slice(), &mut text).unwrap();
    let text = String::from_utf8(text)
        .unwrap()
        .replacen("; seq 0; term 0", "; seq 7; term 3", 1);
    assert!(
        text.lines().next().unwrap().ends_with("; seq 7; term 3"),
        "{text}"
    );
    std::fs::write(dir.join(STATE_FILE), text).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_tkc"))
        .args(["store", "pack"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "tkc store pack failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join(STORE_FILE).exists());

    // `store info` states the file's size as a multiple of the raw CSR's.
    let out = Command::new(env!("CARGO_BIN_EXE_tkc"))
        .args(["store", "info"])
        .arg(dir.join(STORE_FILE))
        .output()
        .unwrap();
    assert!(out.status.success(), "tkc store info failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout
        .lines()
        .find(|l| l.contains("bytes on disk"))
        .unwrap_or_else(|| panic!("no size line in {stdout}"));
    let nums: Vec<&str> = line
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .filter(|t| !t.is_empty())
        .collect();
    let (file, raw) = (
        nums[0].parse::<f64>().unwrap(),
        nums[1].parse::<f64>().unwrap(),
    );
    assert!(
        line.contains(&format!("({:.2}× the raw CSR), checksums OK", file / raw)),
        "{line}"
    );

    let engine = Engine::open(EngineConfig {
        fsync: false,
        ..EngineConfig::new(&dir)
    })
    .unwrap();
    assert_eq!(engine.applied_seq(), 7);
    assert_eq!(engine.term(), 3);
    let snap = engine.snapshot();
    assert_eq!(snap.num_edges(), g.num_edges());
    assert_eq!(snap.max_kappa(), d.max_kappa());
    drop(snap);
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}
