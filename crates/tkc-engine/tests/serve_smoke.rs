#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

//! Concurrent serve smoke: four clients hammer one server over loopback —
//! two writers building disjoint K5 cliques (one via INSERT, one via
//! one-edge BATCHes) while two readers loop
//! MAXK/KAPPA/TRUSS/STATS against the published snapshots. Afterwards the
//! final state must be exactly the two cliques, and shutdown must leave a
//! compacted state directory that reopens with zero WAL replays.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use tkc_engine::{Engine, EngineConfig, ServeOptions, Server};

struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    }

    fn send(&mut self, cmd: &str) -> String {
        writeln!(self.stream, "{cmd}").unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    /// Sends STATS and returns the key/value block.
    fn stats(&mut self) -> Vec<(String, String)> {
        assert_eq!(self.send("STATS"), "OK");
        let mut out = Vec::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            let t = line.trim_end();
            if t == "." {
                return out;
            }
            if let Some((k, v)) = t.split_once(' ') {
                out.push((k.to_string(), v.to_string()));
            }
        }
    }
}

fn clique_edges(base: u32) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for i in 0..5 {
        for j in (i + 1)..5 {
            edges.push((base + i, base + j));
        }
    }
    edges
}

#[test]
fn four_concurrent_clients_mixed_reads_and_writes() {
    let dir = std::env::temp_dir()
        .join("tkc_serve_smoke_tests")
        .join("mixed");
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(
        Engine::open(EngineConfig {
            fsync: false,
            epoch_ops: 8, // force frequent snapshot turnover under load
            ..EngineConfig::new(&dir)
        })
        .unwrap(),
    );
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeOptions {
            read_timeout: Duration::from_secs(10),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Writer 1: INSERTs for the K5 on 0..5.
    let w1 = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        for (u, v) in clique_edges(0) {
            let reply = c.send(&format!("INSERT {u} {v}"));
            assert!(reply.starts_with("OK"), "INSERT {u} {v} -> {reply}");
        }
        c.send("QUIT");
    });

    // Writer 2: the K5 on 5..10 as one BATCH per edge; each reply means
    // the edge is applied and durable.
    let w2 = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        for (u, v) in clique_edges(5) {
            writeln!(c.stream, "BATCH 1\n+ {u} {v}").unwrap();
            let mut line = String::new();
            c.reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "OK queued 1");
        }
        c.send("QUIT");
    });

    // Readers: loop snapshot queries the whole time; every reply must be
    // well-formed regardless of how much ingest has landed.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for i in 0..50 {
                    assert!(c.send("MAXK").starts_with("OK "));
                    assert!(c.send("TRUSS 3").starts_with("OK cores="));
                    let kappa = c.send("KAPPA 0 1");
                    assert!(
                        kappa.starts_with("OK ") || kappa == "ERR no such edge",
                        "KAPPA 0 1 -> {kappa}"
                    );
                    assert!(!c.stats().is_empty());
                    if i % 10 == 9 {
                        assert!(c.send("EPOCH").starts_with("OK "));
                    }
                }
                c.send("QUIT");
            })
        })
        .collect();

    w1.join().unwrap();
    w2.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }

    // Both writers have every reply, so all 20 ops (10 INSERTs, 10
    // BATCHes) are applied: check the merged state at once.
    let mut c = Client::connect(addr);
    let stats = c.stats();
    assert!(
        stats.iter().any(|(k, v)| k == "ops_applied" && v == "20"),
        "{stats:?}"
    );
    assert!(c.send("EPOCH").starts_with("OK "));
    assert_eq!(c.send("KAPPA 0 1"), "OK 3", "K5 edge must sit at κ = 3");
    assert_eq!(c.send("KAPPA 5 9"), "OK 3");
    assert_eq!(c.send("MAXK"), "OK 3");
    assert_eq!(c.send("TRUSS 3"), "OK cores=2 edges=20 vertices=10");
    assert_eq!(c.send("SHUTDOWN"), "OK shutting down");
    let summary = server.join();
    // Drain summary: 5 clients connected (2 writers, 2 readers, this one)
    // and all 20 ops applied.
    assert!(
        summary.connections >= 5,
        "expected >=5 connections, got {}",
        summary.connections
    );
    assert_eq!(summary.ops_applied, 20);

    // Graceful shutdown compacted: reopening replays nothing.
    let reopened = Engine::open(EngineConfig {
        fsync: false,
        ..EngineConfig::new(&dir)
    })
    .unwrap();
    assert_eq!(
        reopened.metrics().recovery_replays.get(),
        0,
        "clean shutdown must leave an empty WAL"
    );
    assert_eq!(reopened.snapshot().num_vertices(), 10);
    assert_eq!(reopened.snapshot().num_edges(), 20);
    assert_eq!(reopened.snapshot().max_kappa(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// The low-traffic verbs — PING, HEALTH, METRICS, REMOVE, QUIT — answer
/// correctly on a live server, and a REMOVE/re-INSERT toggle round-trips
/// through the durable path without disturbing κ.
#[test]
fn auxiliary_verbs_answer_on_a_live_server() {
    let dir = std::env::temp_dir()
        .join("tkc_serve_smoke_tests")
        .join("verbs");
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(
        Engine::open(EngineConfig {
            fsync: false,
            ..EngineConfig::new(&dir)
        })
        .unwrap(),
    );
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeOptions {
            read_timeout: Duration::from_secs(10),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr());

    assert_eq!(c.send("PING"), "OK pong");
    assert_eq!(c.send("HEALTH"), "OK serving");
    for (u, v) in [(0, 1), (0, 2), (1, 2)] {
        assert!(c.send(&format!("INSERT {u} {v}")).starts_with("OK"));
    }
    assert_eq!(c.send("REMOVE 0 1"), "OK removed");
    assert_eq!(c.send("REMOVE 0 1"), "OK noop");
    assert!(c.send("INSERT 0 1").starts_with("OK"));
    assert!(c.send("EPOCH").starts_with("OK "));
    assert_eq!(c.send("KAPPA 0 1"), "OK 1");

    // METRICS: `.`-terminated prometheus block with the removal counted.
    assert_eq!(c.send("METRICS"), "OK");
    let mut saw_removed = false;
    loop {
        let mut line = String::new();
        c.reader.read_line(&mut line).unwrap();
        let t = line.trim_end();
        if t == "." {
            break;
        }
        if t.starts_with("tkc_engine_removed_total") {
            saw_removed = true;
        }
    }
    assert!(saw_removed, "METRICS block lacks tkc_engine_removed_total");

    // SLO: this server has no objectives configured; the verb still
    // answers with a `.`-terminated block saying exactly that.
    let read_block = |c: &mut Client| -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            c.reader.read_line(&mut line).unwrap();
            let t = line.trim_end();
            if t == "." {
                return lines;
            }
            lines.push(t.to_string());
        }
    };
    assert_eq!(c.send("SLO"), "OK");
    let slo = read_block(&mut c);
    assert!(
        slo.iter().any(|l| l.contains("no slo objectives")),
        "SLO without objectives -> {slo:?}"
    );

    // TRACE n: a `.`-terminated JSONL block (empty here — tracing is
    // off), and n is validated before anything is read.
    assert_eq!(c.send("TRACE 5"), "OK");
    read_block(&mut c);
    assert_eq!(c.send("TRACE 0"), "ERR usage: TRACE n (n >= 1)");

    // PROMOTE is only meaningful on a replication follower; on a
    // standalone server it answers a clean one-line error.
    assert!(c.send("PROMOTE").starts_with("ERR INVALID"));

    // QUIT closes only this connection; the server keeps serving.
    assert_eq!(c.send("QUIT"), "OK bye");
    let mut c2 = Client::connect(server.local_addr());
    assert_eq!(c2.send("PING"), "OK pong");
    assert_eq!(c2.send("SHUTDOWN"), "OK shutting down");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
