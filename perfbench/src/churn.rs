//! `churn`: writes beside reads on the same graph, in three phases.
//!
//! 1. Open-loop writes: connection 1 sends single `INSERT`/`REMOVE` on a
//!    fixed schedule (pipelined, timed from each request's due time);
//!    connection 2 sends closed-loop `KAPPA` reads, half of them reading
//!    back recently written edges.
//! 2. Bulk ingest: closed-loop `BATCH` on both connections until `STATS`
//!    shows every op applied; enough ops that online compaction runs at
//!    least twice.
//! 3. Crash recovery: `kill -9`, then restart on the same dir until the
//!    first `PING` answers.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tkc_core::decompose::Decomposition;
use tkc_core::dynamic::DynamicTriangleKCore;
use tkc_engine::{Engine, EngineConfig, ServeOptions, Server};
use tkc_graph::VertexId;
use tkc_store::{PageCacheConfig, StoreReader};

use crate::inputs::{Base, ChurnPlan, Op};
use crate::proc::run_tool;
use crate::query::{read_p99, restarts, setup_server, store_bytes, Log};
use crate::spans::SpanLog;
use crate::util::{median, percentile, sleep_until, Json, Metrics, Rng};
use crate::wire::Conn;
use crate::{layers, Ctx, Outcome};

/// Open-loop write rate (requests per second) on connection 1.
pub const WRITE_RATE: f64 = 200.0;
/// Pause between a read's reply and the next read on connection 2.
pub const READ_THINK: Duration = Duration::from_micros(500);
/// `BATCH` requests in the bulk-ingest phase (split over both connections).
pub const BATCHES: usize = 28;
/// Ops per `BATCH` at full scale.
pub const BATCH_OPS: usize = 20_000;
/// Restarts after the kill; `restart_s` is the median.
pub const RECOVER_REPS: usize = 3;
/// Churn ops the traced run replays through the dynamic maintainer: the
/// open-loop writes and the first batches. The whole plan would add half
/// a minute at the same per-op cost.
pub const DYNAMIC_OPS: usize = 100_000;
/// Recently acknowledged writes that reads may read back.
const RECENT: usize = 64;

/// Open-loop writer results.
#[derive(Debug, Default)]
struct Writes {
    lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Sizes of the plan at `scale` for a measured phase of `seconds`.
pub fn plan(base: &Base, ctx: &Ctx) -> ChurnPlan {
    let open_loop = (WRITE_RATE * ctx.seconds).round() as usize;
    let batch_ops = ((BATCH_OPS as f64 * ctx.scale).round() as usize).max(256);
    ChurnPlan::build(base, ctx.seed, open_loop, BATCHES, batch_ops)
}

/// The mean of the insert p50 and the remove p50 of the open-loop
/// writes, each timed from its due time. Inserts and removes alternate
/// and removes take longer, so the p50 of all writes would sit where the
/// two distributions cross; the median of each kind does not.
fn write_p50(plan: &ChurnPlan, writes: &Writes) -> f64 {
    let (ins, rem) = by_kind(plan, &writes.lat_ms);
    (percentile(&ins, 50.0) + percentile(&rem, 50.0)) / 2.0
}

/// Splits per-write values into (inserts, removes).
fn by_kind(plan: &ChurnPlan, values: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (mut ins, mut rem) = (Vec::new(), Vec::new());
    for (op, v) in plan.open_loop.iter().zip(values) {
        match op {
            Op::Insert(..) => ins.push(*v),
            Op::Remove(..) => rem.push(*v),
        }
    }
    (ins, rem)
}

/// Phase 1, connection 1: pipelined writes at [`WRITE_RATE`], each timed
/// from its due time to its reply.
fn open_loop_writes(
    addr: &str,
    ops: &[Op],
    recent: &Mutex<VecDeque<(u32, u32)>>,
    spans: &mut SpanLog,
) -> Result<Writes, String> {
    let mut conn = Conn::connect(addr, Duration::from_secs(10))?;
    let mut sender = conn.writer().map_err(|e| e.to_string())?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / WRITE_RATE);
    let lines: Vec<String> = ops.iter().map(|op| format!("{}\n", op.wire())).collect();
    let mut w = Writes::default();
    std::thread::scope(|s| {
        let send = s.spawn(|| {
            let mut late = Vec::with_capacity(lines.len());
            for (i, line) in lines.iter().enumerate() {
                sleep_until(due(i));
                late.push(due(i).elapsed().as_secs_f64() * 1e3);
                if sender.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            late
        });
        for (i, op) in ops.iter().enumerate() {
            w.attempted += 1;
            let reply = match conn.read_line() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perfbench: write {i}: {e}");
                    w.failed += (ops.len() - i) as u64;
                    w.attempted += (ops.len() - i - 1) as u64;
                    // Unblock the sender if it is still writing.
                    let _ = conn
                        .writer()
                        .and_then(|s| s.shutdown(std::net::Shutdown::Both));
                    break;
                }
            };
            let lat = due(i).elapsed();
            w.lat_ms.push(lat.as_secs_f64() * 1e3);
            spans.record_root(
                if matches!(op, Op::Insert(..)) {
                    "client.INSERT"
                } else {
                    "client.REMOVE"
                },
                due(i),
                lat,
            );
            let ok = match op {
                Op::Insert(..) => reply.starts_with("OK kappa="),
                Op::Remove(..) => reply == "OK removed",
            };
            if !ok {
                eprintln!("perfbench: {} answered {reply:?}", op.wire());
                w.failed += 1;
            }
            let mut r = recent.lock().unwrap_or_else(|p| p.into_inner());
            if r.len() == RECENT {
                r.pop_front();
            }
            r.push_back(op.pair());
        }
        w.late_ms = send.join().unwrap_or_default();
    });
    Ok(w)
}

/// Phase 1, connection 2: closed-loop reads until `stop`; even reads
/// read back a recent write (either answer is valid while the epoch
/// lags), odd reads hit base edges no op touches (must answer `OK`).
fn reads(
    addr: &str,
    plan: &ChurnPlan,
    recent: &Mutex<VecDeque<(u32, u32)>>,
    stop: &AtomicBool,
    seed: u64,
    spans: &mut SpanLog,
) -> Result<Log<bool>, String> {
    let mut rng = Rng::fork(seed, 30);
    let mut conn = Conn::connect(addr, Duration::from_secs(10))?;
    let mut log = Log::default();
    while !stop.load(Ordering::Relaxed) {
        let back = rng.chance(0.5);
        let picked = if back {
            let r = recent.lock().unwrap_or_else(|p| p.into_inner());
            (!r.is_empty()).then(|| r[rng.below(r.len())])
        } else {
            None
        };
        let (readback, (u, v)) = match picked {
            Some(p) => (true, p),
            None => (false, plan.stable[rng.below(plan.stable.len())]),
        };
        log.attempted += 1;
        let span = spans.root("client.KAPPA");
        let start = Instant::now();
        let reply = conn.request(&format!("KAPPA {u} {v}"));
        let rtt = start.elapsed();
        spans.end(span);
        match reply {
            Ok(r) => {
                log.lat_ms.push(rtt.as_secs_f64() * 1e3);
                let ok = r.starts_with("OK ") || (readback && r == "ERR no such edge");
                if !ok {
                    eprintln!("perfbench: KAPPA {u} {v} answered {r:?}");
                    log.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("perfbench: KAPPA {u} {v}: {e}");
                log.failed += 1;
                break;
            }
        }
        std::thread::sleep(READ_THINK);
    }
    Ok(log)
}

/// Phase 1 on both connections.
fn phase1(
    addr: &str,
    plan: &ChurnPlan,
    seed: u64,
    spans: &mut SpanLog,
) -> Result<(Writes, Log<bool>), String> {
    let recent = Mutex::new(VecDeque::with_capacity(RECENT));
    let stop = AtomicBool::new(false);
    let enabled = spans.enabled;
    let (writes, (reads, read_spans)) = std::thread::scope(|s| {
        let r = s.spawn(|| {
            let mut spans = SpanLog::new(enabled);
            reads(addr, plan, &recent, &stop, seed, &mut spans).map(|l| (l, spans))
        });
        let w = open_loop_writes(addr, &plan.open_loop, &recent, spans);
        stop.store(true, Ordering::Relaxed);
        let r = r.join().map_err(|_| "reader panicked".to_string())?;
        Ok::<_, String>((w?, r?))
    })?;
    spans.absorb(read_spans);
    Ok((writes, reads))
}

/// Phase 2: closed-loop `BATCH` on two connections, then `STATS` polling
/// until every op is applied. Returns elapsed time and failures.
fn phase2(
    addr: &str,
    plan: &ChurnPlan,
    spans: &mut SpanLog,
) -> Result<(Duration, u64, u64), String> {
    let texts: Vec<(usize, String)> = plan
        .batches
        .iter()
        .map(|b| {
            let mut t = format!("BATCH {}\n", b.len());
            for op in b {
                t.push_str(&op.batch_line());
                t.push('\n');
            }
            (b.len(), t)
        })
        .collect();
    let mut conns = [
        Conn::connect(addr, Duration::from_secs(10))?,
        Conn::connect(addr, Duration::from_secs(10))?,
    ];
    let target = conns[0].stat("ops_applied")? + plan.batch_ops() as u64;
    let enabled = spans.enabled;
    let start = Instant::now();
    let results: Vec<(u64, SpanLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let texts = &texts;
                s.spawn(move || {
                    let mut spans = SpanLog::new(enabled);
                    let mut failed = 0u64;
                    for (n, text) in texts.iter().skip(c).step_by(2) {
                        let span = spans.root("client.BATCH");
                        let reply = conn.send(text).and_then(|()| conn.read_line());
                        spans.end(span);
                        if !matches!(&reply, Ok(r) if *r == format!("OK queued {n}")) {
                            eprintln!("perfbench: BATCH {n} answered {reply:?}");
                            failed += *n as u64;
                        }
                    }
                    (failed, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "BATCH client panicked".to_string()))
            .collect::<Result<_, _>>()
    })?;
    let mut failed = 0;
    for (f, s) in results {
        failed += f;
        spans.absorb(s);
    }
    let wait = spans.root("client.ingest_wait");
    let deadline = Instant::now() + Duration::from_secs(150);
    while conns[0].stat("ops_applied")? < target - failed {
        if Instant::now() > deadline {
            return Err("bulk ingest did not finish".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let elapsed = start.elapsed();
    spans.end(wait);
    failed += conns[0].metric("tkc_server_batches_dropped_total")? as u64;
    Ok((elapsed, plan.batch_ops() as u64, failed))
}

/// Correctness gate on the state a clean shutdown left in `dir`: every
/// acknowledged write is present, and κ ≡ recompute of that graph.
pub fn check(base: &Base, plan: &ChurnPlan, dir: &Path, planted: bool) -> Result<(), String> {
    let reader = StoreReader::open(
        &dir.join(tkc_engine::STORE_FILE),
        PageCacheConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let g = reader.load_graph().map_err(|e| e.to_string())?;
    let kappa = reader.read_kappa().map_err(|e| e.to_string())?;
    let want_edges = plan.expected_edges(base) + usize::from(planted);
    if g.num_edges() != want_edges {
        return Err(format!(
            "recovered graph has {} edges, expected {want_edges}",
            g.num_edges()
        ));
    }
    for (_, u, v) in g.edges() {
        if !plan.expected(base, u.0, v.0) {
            return Err(format!(
                "recovered graph holds edge {} {} that no acknowledged write left",
                u.0, v.0
            ));
        }
    }
    let d = Decomposition::compute_with(&g, 1);
    for e in g.edge_ids() {
        if kappa.get(e.index()).copied() != Some(d.kappa(e)) {
            let (u, v) = g.endpoints(e);
            return Err(format!(
                "κ({} {}) = {:?} after recovery, recompute gives {}",
                u.0,
                v.0,
                kappa.get(e.index()),
                d.kappa(e)
            ));
        }
    }
    Ok(())
}

pub fn timed(ctx: &Ctx) -> Result<Outcome, String> {
    let base = Base::build(ctx.seed, ctx.scale);
    let plan = plan(&base, ctx);
    let dir = ctx.work.path("state");
    base.write_state_dir(&dir)?;
    let (server, setup) = setup_server(ctx, &dir)?;
    let mut off = SpanLog::new(false);
    let (writes, reads) = phase1(&server.addr, &plan, ctx.seed, &mut off)?;
    let (ingest, ingest_ops, ingest_failed) = phase2(&server.addr, &plan, &mut off)?;
    let compactions = Conn::connect(&server.addr, Duration::from_secs(10))?.stat("compactions")?;

    server.kill9();
    let (server, recover) = restarts(ctx, &dir, RECOVER_REPS)?;
    let replayed =
        Conn::connect(&server.addr, Duration::from_secs(10))?.stat("recovery_replays")?;
    server.shutdown()?;
    check(&base, &plan, &dir, ctx.plant)?;
    let store_bytes = store_bytes(&dir)?;

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup), "s");
    m.put("latency_p50_ms", write_p50(&plan, &writes), "ms");
    m.put(
        "throughput_per_s",
        ingest_ops as f64 / ingest.as_secs_f64(),
        "1/s",
    );
    m.put("restart_s", median(&recover), "s");
    m.put(
        "store_bytes_per_edge",
        store_bytes as f64 / plan.expected_edges(&base) as f64,
        "B",
    );
    m.put("peak_rss_mb", ctx.peak.mb(), "MB");
    let mut rec = record(&base, &plan, &writes, &reads);
    rec.push(("read_p99_ms", Json::Num(read_p99(&reads.lat_ms))));
    rec.push(("compactions", Json::Int(compactions)));
    rec.push(("recovery_replays", Json::Int(replayed)));
    Ok(Outcome {
        metrics: m,
        attempted: writes.attempted + reads.attempted + ingest_ops,
        failed: writes.failed + reads.failed + ingest_failed,
        record: rec,
        spans: None,
    })
}

fn record(
    base: &Base,
    plan: &ChurnPlan,
    writes: &Writes,
    reads: &Log<bool>,
) -> Vec<(&'static str, Json)> {
    let (ins, rem) = by_kind(plan, &writes.lat_ms);
    // Write latency from the actual send rather than the due time.
    let sent: Vec<f64> = writes
        .lat_ms
        .iter()
        .zip(&writes.late_ms)
        .map(|(lat, late)| lat - late)
        .collect();
    vec![
        ("graph_vertices", Json::Int(base.g.num_vertices() as u64)),
        ("graph_edges", Json::Int(base.g.num_edges() as u64)),
        ("graph_max_kappa", Json::Int(u64::from(base.max_kappa()))),
        ("write_rate_per_s", Json::Num(WRITE_RATE)),
        ("write_insert_p50_ms", Json::Num(percentile(&ins, 50.0))),
        ("write_remove_p50_ms", Json::Num(percentile(&rem, 50.0))),
        ("write_p50_ms", Json::Num(percentile(&writes.lat_ms, 50.0))),
        ("write_from_send_p50_ms", Json::Num(percentile(&sent, 50.0))),
        (
            "send_late_p50_ms",
            Json::Num(percentile(&writes.late_ms, 50.0)),
        ),
        ("read_think_us", Json::Int(READ_THINK.as_micros() as u64)),
        ("open_loop_writes", Json::Int(plan.open_loop.len() as u64)),
        ("reads", Json::Int(reads.lat_ms.len() as u64)),
        ("batches", Json::Int(plan.batches.len() as u64)),
        (
            "batch_ops",
            Json::Int(plan.batches.first().map_or(0, Vec::len) as u64),
        ),
        // Reported, not metrics: too unsteady between runs (see
        // NOTES.md). `server.read_overhead_p50_ms` and
        // `engine.publish.p50_ms` are their per-layer proxies.
        ("read_p50_ms", Json::Num(percentile(&reads.lat_ms, 50.0))),
        ("write_p99_ms", Json::Num(percentile(&writes.lat_ms, 99.0))),
        (
            "send_late_p99_ms",
            Json::Num(percentile(&writes.late_ms, 99.0)),
        ),
        (
            "send_late_max_ms",
            Json::Num(writes.late_ms.iter().copied().fold(0.0, f64::max)),
        ),
        ("connections", Json::Int(2)),
    ]
}

pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut spans = SpanLog::new(true);
    let base = Base::build(ctx.seed, ctx.scale);
    let plan = plan(&base, ctx);
    let mut m = Metrics::default();
    let run = serve_layers(ctx, &base, &plan, "state", &mut spans, &mut m)?;
    let mut rest = Metrics::default();
    crate::offline::decompose_layers(ctx, &base, &mut spans, &mut rest)?;
    m.fill(rest);
    Ok(Outcome {
        metrics: m,
        attempted: run.attempted,
        failed: run.failed,
        record: record(&base, &plan, &run.writes, &run.reads),
        spans: Some(spans),
    })
}

/// A short churn plan for the traced runs of the other workloads: one
/// second of open-loop writes and two half-size batches, so every
/// write-path layer is timed without the full ingest.
pub fn slice_plan(base: &Base, ctx: &Ctx) -> ChurnPlan {
    let open_loop = WRITE_RATE.round() as usize;
    let batch_ops = ((BATCH_OPS as f64 * ctx.scale / 2.0).round() as usize).max(256);
    ChurnPlan::build(base, ctx.seed, open_loop, 2, batch_ops)
}

/// What [`serve_layers`] drove, for the record and result lines.
pub struct ServeRun {
    writes: Writes,
    reads: Log<bool>,
    pub attempted: u64,
    pub failed: u64,
}

/// The serving layers in process: packs a state dir of `base` under
/// `label`, opens an `Engine` and `Server` on it, drives `plan` through
/// them (phases 1 and 2), then times recovery, snapshot reads, `TRUSS`
/// extraction, publish and compaction, checks the state a clean shutdown
/// leaves, and replays `plan` through the dynamic maintainer.
pub fn serve_layers(
    ctx: &Ctx,
    base: &Base,
    plan: &ChurnPlan,
    label: &str,
    spans: &mut SpanLog,
    m: &mut Metrics,
) -> Result<ServeRun, String> {
    let dir = ctx.work.path(label);
    base.write_state_dir(&dir)?;
    let dir_arg = dir.to_str().ok_or("non-UTF-8 path")?;
    run_tool(&ctx.tkc, &["store", "pack", dir_arg], &ctx.peak)?;

    layers::store(ctx, base, &dir, spans, m)?;
    let engine = layers::open_engine(&dir, spans, m)?;
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("in-process server: {e}"))?;
    let addr = server.local_addr().to_string();
    let (writes, reads) = phase1(&addr, plan, ctx.seed, spans)?;
    let (_, ingest_ops, ingest_failed) = phase2(&addr, plan, spans)?;
    // Counters of phases 1–2, read before any explicit call below.
    let em = engine.metrics();
    let ops = em.ops_applied.get().max(1) as f64;
    let applies = em.apply_seconds.count();
    let apply_s = em.apply_seconds.sum_scaled();
    let wal_s = em.wal_append_seconds.sum_scaled();
    let publishes = em.epoch_publish_seconds.count();
    let publish_s = em.epoch_publish_seconds.sum_scaled();
    let compactions = em.compactions.get();
    m.put(
        "wal.fsyncs_per_op",
        em.wal_fsync_seconds.count() as f64 / ops,
        "1/op",
    );
    m.put("wal.bytes_per_op", em.wal_bytes.get() as f64 / ops, "B/op");
    m.put("wal.fsync_s", em.wal_fsync_seconds.sum_scaled(), "s");
    m.put(
        "server.backpressure_waits",
        em.backpressure_waits.get() as f64,
        "count",
    );
    let dropped = engine
        .registry()
        .counter(
            "tkc_server_batches_dropped_total",
            "Queued batches dropped because apply failed",
        )
        .get();
    m.put("server.batches_dropped", dropped as f64, "count");

    // Recovery: reopen the dir while the live engine sits idle; the WAL
    // tail since the last compaction is replayed each time.
    let mut recover = Vec::new();
    let mut replayed = 0;
    for _ in 0..layers::REPS {
        let s = spans.root("engine.recover");
        let e = Engine::open(EngineConfig::new(&dir)).map_err(|e| format!("reopen: {e}"))?;
        recover.push(spans.end(s).as_secs_f64());
        replayed = e.metrics().recovery_replays.get();
    }
    m.put("engine.recover_s", median(&recover), "s");
    m.put("engine.replay.ops", replayed as f64, "count");

    let snap = engine.snapshot();
    layers::snapshot_reads(ctx.seed, base, &snap, spans, m);
    layers::extract(ctx.seed, base, &snap, 1, spans, m);
    drop(snap);
    m.put(
        "server.read_overhead_p50_ms",
        percentile(&reads.lat_ms, 50.0) - m.get("snapshot.kappa_p50_ns").unwrap_or(0.0) / 1e6,
        "ms",
    );
    let mut publish = Vec::new();
    for _ in 0..5 {
        let s = spans.root("engine.publish");
        engine.publish();
        publish.push(spans.end(s).as_secs_f64() * 1e3);
    }
    layers::publish_parts(&engine, spans, m);
    let mut compact = Vec::new();
    for _ in 0..layers::REPS {
        let s = spans.root("engine.compact");
        engine.compact().map_err(|e| format!("compact: {e}"))?;
        compact.push(spans.end(s).as_secs_f64());
    }
    let compact_s = median(&compact);
    m.put("engine.apply.count", applies as f64, "count");
    m.put(
        "engine.apply.self_s",
        (apply_s - wal_s - publish_s - compactions as f64 * compact_s).max(0.0),
        "s",
    );
    m.put("engine.publish.count", publishes as f64, "count");
    m.put("engine.publish.p50_ms", median(&publish), "ms");
    m.put("engine.publish.busy_s", publish_s, "s");
    m.put("engine.compact.count", compactions as f64, "count");
    m.put("engine.compact.p50_ms", compact_s * 1e3, "ms");
    server.shutdown();
    drop(engine);
    check(base, plan, &dir, ctx.plant)?;

    dynamic(base, plan, spans, m)?;
    m.put(
        "gen.send_late_p99_ms",
        percentile(&writes.late_ms, 99.0),
        "ms",
    );
    m.put(
        "gen.send_late_max_ms",
        writes.late_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    Ok(ServeRun {
        attempted: writes.attempted + reads.attempted + ingest_ops,
        failed: writes.failed + reads.failed + ingest_failed,
        writes,
        reads,
    })
}

/// `tkc-core::dynamic`: the first [`DYNAMIC_OPS`] churn ops replayed
/// through the maintainer.
fn dynamic(
    base: &Base,
    plan: &ChurnPlan,
    spans: &mut SpanLog,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut core = DynamicTriangleKCore::from_parts(base.g.clone(), base.d.kappa_slice().to_vec());
    let ops = plan
        .open_loop
        .iter()
        .chain(plan.batches.iter().flatten())
        .take(DYNAMIC_OPS);
    let (mut ins, mut rem) = (Vec::new(), Vec::new());
    let mut n = 0u64;
    let mut replay = SpanLog::new(true);
    for op in ops {
        n += 1;
        match *op {
            Op::Insert(u, v) => {
                let s = replay.root("dynamic.insert_edge");
                core.insert_edge(VertexId(u), VertexId(v))
                    .map_err(|e| format!("insert {u} {v}: {e}"))?;
                ins.push(replay.end(s).as_secs_f64() * 1e6);
            }
            Op::Remove(u, v) => {
                let s = replay.root("dynamic.remove_edge_between");
                core.remove_edge_between(VertexId(u), VertexId(v))
                    .map_err(|e| format!("remove {u} {v}: {e}"))?;
                rem.push(replay.end(s).as_secs_f64() * 1e6);
            }
        }
    }
    layers::keep_sample(spans, replay);
    let st = core.stats();
    m.put("dynamic.insert_p50_us", percentile(&ins, 50.0), "us");
    m.put("dynamic.remove_p50_us", percentile(&rem, 50.0), "us");
    m.put(
        "dynamic.busy_s",
        (ins.iter().sum::<f64>() + rem.iter().sum::<f64>()) / 1e6,
        "s",
    );
    m.put(
        "dynamic.triangles_per_op",
        (st.triangles_added + st.triangles_removed) as f64 / n.max(1) as f64,
        "1/op",
    );
    m.put(
        "dynamic.levels_per_op",
        (st.promotions + st.demotions) as f64 / n.max(1) as f64,
        "1/op",
    );
    Ok(())
}
