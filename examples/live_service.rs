#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! Live service: one ingest thread streams edges from a planted-partition
//! generator into a durable [`tkc_engine::Engine`] while query threads
//! read κ statistics from published epoch snapshots — no query ever waits
//! on ingest.
//!
//! Run with: `cargo run --release -p tkc-engine --example live_service`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tkc_engine::{Engine, EngineConfig, WalOp};
use tkc_graph::generators;

fn main() {
    let dir = std::env::temp_dir().join("tkc_live_service_example");
    std::fs::remove_dir_all(&dir).ok();
    let config = EngineConfig {
        fsync: false,  // demo data; a real deployment keeps this on
        epoch_ops: 64, // publish a fresh snapshot every 64 applied ops
        ..EngineConfig::new(&dir)
    };
    let engine = Arc::new(Engine::open(config).expect("open engine"));

    // The workload: a 4-community planted partition, streamed edge by edge.
    let g = generators::planted_partition(4, 30, 0.3, 0.01, 42);
    let ops: Vec<WalOp> = g
        .edge_ids()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            WalOp::Insert(u.index() as u32, v.index() as u32)
        })
        .collect();
    println!(
        "streaming {} edges over {} vertices into {}",
        ops.len(),
        g.num_vertices(),
        dir.display()
    );

    let done = Arc::new(AtomicBool::new(false));

    // Query threads: poll the published snapshot and report what they see.
    let readers: Vec<_> = (0..2)
        .map(|id| {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last_epoch = 0;
                while !done.load(Ordering::Relaxed) {
                    let snap = engine.snapshot();
                    if snap.epoch() != last_epoch {
                        last_epoch = snap.epoch();
                        println!(
                            "[reader {id}] epoch {:>3}: {} edges, max κ = {}",
                            snap.epoch(),
                            snap.num_edges(),
                            snap.max_kappa()
                        );
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        })
        .collect();

    // Ingest thread: apply the stream in small durable batches.
    let ingest_engine = Arc::clone(&engine);
    let ingest = std::thread::spawn(move || {
        for batch in ops.chunks(32) {
            ingest_engine.apply(batch).expect("apply batch");
            std::thread::sleep(Duration::from_millis(2));
        }
    });

    ingest.join().unwrap();
    let final_epoch = engine.publish();
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    let snap = engine.snapshot();
    println!("\nfinal epoch {final_epoch}:");
    println!(
        "  {} vertices, {} edges, max κ = {}",
        snap.num_vertices(),
        snap.num_edges(),
        snap.max_kappa()
    );
    let truss = snap.truss(snap.max_kappa());
    println!(
        "  top truss (k = {}): {} components over {} edges / {} vertices",
        snap.max_kappa(),
        truss.components,
        truss.edges,
        truss.vertices
    );
    println!("\nper-epoch update stats (cumulative):");
    for line in engine.metrics_text().lines() {
        println!("  {line}");
    }
    engine.compact().expect("compact");
    println!("\ncompacted: restart will replay 0 WAL ops");
}
