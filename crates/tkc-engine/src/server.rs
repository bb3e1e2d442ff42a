//! The `tkc serve` TCP front-end: a threaded listener speaking a
//! line-oriented text protocol over the engine.
//!
//! ## Wire protocol
//!
//! One command per `\n`-terminated line; every response starts with `OK`
//! or `ERR`. Multi-line responses (`STATS`) end with a lone `.`.
//!
//! | command        | response                                | path   |
//! |----------------|-----------------------------------------|--------|
//! | `KAPPA u v`    | `OK <κ>` / `ERR no such edge`           | snapshot |
//! | `MAXK`         | `OK <max κ>`                            | snapshot |
//! | `TRUSS k`      | `OK cores=<c> edges=<m> vertices=<n>`   | snapshot |
//! | `INSERT u v`   | `OK kappa=<κ>` / `OK noop`              | durable, read-your-write |
//! | `REMOVE u v`   | `OK removed` / `OK noop`                | durable |
//! | `BATCH n` + n op lines (`+ u v` / `- u v`) | `OK queued <n>` | durable |
//! | `EPOCH`        | `OK <epoch>` (forces publication)       | writer |
//! | `STATS`        | `OK`, `key value` lines, `.`            | counters |
//! | `METRICS`      | `OK`, Prometheus text lines, `.`        | counters |
//! | `SLO`          | `OK`, per-verb objective lines, `.`     | SLO tracker |
//! | `TRACE n`      | `OK`, last `n` span JSONL lines, `.`    | trace ring |
//! | `HEALTH`       | `OK serving` / `OK read_only <reason>`  | state machine |
//! | `PING`         | `OK pong`                               | — |
//! | `SHUTDOWN`     | `OK shutting down` (graceful stop)      | — |
//! | `QUIT`         | `OK bye` (closes this connection)       | — |
//!
//! Reads (`KAPPA`/`MAXK`/`TRUSS`) are answered from the current epoch
//! snapshot and never block on ingest. Every write is applied on its
//! connection's thread and is WAL-durable when the `OK` is on the wire:
//! `INSERT` reports the edge's κ, and `BATCH` reads its `n` op lines,
//! applies them as one [`Engine::apply`] (one WAL append and fsync) and
//! only then answers. `queued` in its reply is a wire-compatibility token
//! from when batches went through a queue; it now means *durable*. A
//! malformed op line answers one `ERR batch op <i>` after the rest of the
//! batch's lines are read and discarded, so they never run as commands.
//! Writers that find the writer lock held wait for it (counted in
//! `tkc_server_backpressure_waits_total`); a client with one request in
//! flight per connection cannot make the server buffer unboundedly.
//! Graceful shutdown joins the connection threads, each finished with
//! its apply, then publishes and compacts.
//!
//! ## Degraded mode and recovery
//!
//! When the engine drops to read-only (WAL failure), reads keep being
//! served from the last epoch while writes answer `ERR DEGRADED
//! <reason>`. A supervisor thread watches the state and drives
//! [`Engine::recover`] with capped exponential backoff + jitter until
//! the engine serves again.
//!
//! ## Wire hardening
//!
//! Hostile or broken clients are bounded on every axis: line length
//! ([`ServeOptions::max_line_bytes`], oversized lines answer `ERR` and
//! close), connection count ([`ServeOptions::max_conns`], excess
//! connections are shed with `ERR BUSY`), per-connection request budget
//! ([`ServeOptions::request_budget`]), and a read timeout that reaps
//! idle or half-open connections (counted in `tkc_conn_timeouts_total`
//! and logged). Parsing never panics on arbitrary bytes — see
//! [`crate::proto`].
//!
//! ## Request spans, slow-op log, SLOs
//!
//! When span tracing is on (`--trace-out` / `--slow-op-ms`), every
//! request records a span tree: a per-connection `conn` root, a `parse`
//! child per line, and a per-request span named after the verb whose
//! children cover the engine apply (`engine.apply` →
//! `engine.wal_append` → `engine.wal_fsync`, `engine.cascade`,
//! `engine.publish`). A request slower than
//! [`ServeOptions::slow_op`] logs its completed tree at `warn` level and
//! bumps `tkc_server_slow_ops_total`. Per-verb latency objectives
//! ([`ServeOptions::slo`]) feed an [`SloTracker`] whose burn-rate gauges
//! are on `/metrics` and whose status renders via the `SLO` verb.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tkc_obs::{Counter, Histogram, SloTarget, SloTracker, SpanGuard, TraceBuffer};

use crate::engine::Engine;
use crate::error::{EngineError, EngineState};
use crate::proto::{parse_batch_line, parse_command, Command};

/// Per-command request counter + latency histogram, labeled
/// `{cmd="<VERB>"}` on the engine's registry.
#[derive(Debug, Clone)]
struct CommandMetrics {
    requests: Counter,
    seconds: Histogram,
}

/// The wire verbs that get their own `{cmd=...}` series; anything else
/// lands in `OTHER`.
const VERBS: [&str; 16] = [
    "KAPPA", "MAXK", "TRUSS", "INSERT", "REMOVE", "BATCH", "EPOCH", "STATS", "METRICS", "SLO",
    "TRACE", "HEALTH", "PROMOTE", "PING", "QUIT", "SHUTDOWN",
];

/// The canonical (static) spelling of a raw verb token, for span names
/// and SLO keys; unknown verbs collapse to `OTHER`.
fn static_verb(verb: &str) -> &'static str {
    VERBS
        .iter()
        .find(|&&v| v == verb)
        .copied()
        .unwrap_or("OTHER")
}

/// Per-verb serving metrics plus the shedding/timeout counters, shared by
/// every connection thread.
#[derive(Debug)]
struct ServerMetrics {
    by_verb: Vec<(&'static str, CommandMetrics)>,
    other: CommandMetrics,
    /// Connections reaped by the read timeout.
    conn_timeouts: Counter,
    /// Connections shed at the cap with `ERR BUSY`.
    shed_busy: Counter,
    /// Connections closed for an oversized line.
    shed_line: Counter,
    /// Connections closed for exhausting their request budget.
    shed_budget: Counter,
    /// `BATCH` requests refused because apply failed (degraded engine,
    /// follower, invalid op).
    batches_dropped: Counter,
    /// Requests that tripped the `--slow-op-ms` slow-op log.
    slow_ops: Counter,
    /// Per-verb latency objectives (empty unless `--slo` is configured).
    slo: SloTracker,
}

impl ServerMetrics {
    fn register(engine: &Engine, slo_targets: &[SloTarget]) -> ServerMetrics {
        let reg = engine.registry();
        let family = |cmd: &str| CommandMetrics {
            requests: reg.counter_with(
                "tkc_server_requests_total",
                "Commands handled, by verb",
                &[("cmd", cmd)],
            ),
            seconds: reg.histogram_with(
                "tkc_server_command_seconds",
                "Command handling latency, by verb",
                1e-9,
                &[("cmd", cmd)],
            ),
        };
        let shed = |reason: &str| {
            reg.counter_with(
                "tkc_server_shed_total",
                "Connections shed, by reason",
                &[("reason", reason)],
            )
        };
        ServerMetrics {
            by_verb: VERBS.iter().map(|&v| (v, family(v))).collect(),
            other: family("OTHER"),
            conn_timeouts: reg.counter(
                "tkc_conn_timeouts_total",
                "Connections reaped by the read timeout",
            ),
            shed_busy: shed("busy"),
            shed_line: shed("line_too_long"),
            shed_budget: shed("request_budget"),
            batches_dropped: reg.counter(
                "tkc_server_batches_dropped_total",
                "BATCH requests refused because apply failed",
            ),
            slow_ops: reg.counter(
                "tkc_server_slow_ops_total",
                "Requests over the --slow-op-ms threshold (span tree logged)",
            ),
            slo: SloTracker::new(reg, slo_targets),
        }
    }

    fn for_verb(&self, verb: &str) -> &CommandMetrics {
        self.by_verb
            .iter()
            .find(|(name, _)| *name == verb)
            .map(|(_, m)| m)
            .unwrap_or(&self.other)
    }
}

/// Final accounting of a graceful shutdown, logged at info level and
/// returned by [`Server::shutdown`] / [`Server::join`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Connections accepted over the server's lifetime (all closed by the
    /// time the summary exists).
    pub connections: u64,
    /// Total mutation ops applied by the engine.
    pub ops_applied: u64,
}

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Per-connection read timeout; a connection idle longer is reaped
    /// (counted in `tkc_conn_timeouts_total`).
    pub read_timeout: Duration,
    /// Maximum concurrent connections; extras get `ERR BUSY` and are
    /// closed immediately.
    pub max_conns: usize,
    /// Maximum request-line length in bytes; longer lines answer `ERR`
    /// and close the connection.
    pub max_line_bytes: usize,
    /// Requests a single connection may issue before being closed
    /// (`0` = unlimited).
    pub request_budget: u64,
    /// Base delay of the recovery supervisor's exponential backoff.
    pub recover_backoff: Duration,
    /// Cap on the recovery backoff delay.
    pub recover_backoff_cap: Duration,
    /// Slow-op log threshold: a request strictly slower than this logs
    /// its span tree at `warn` level (`None` = disabled).
    pub slow_op: Option<Duration>,
    /// Per-verb latency objectives for the SLO tracker (empty = none).
    pub slo: Vec<SloTarget>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            read_timeout: Duration::from_secs(60),
            max_conns: 256,
            max_line_bytes: 64 << 10,
            request_budget: 0,
            recover_backoff: Duration::from_millis(50),
            recover_backoff_cap: Duration::from_secs(5),
            slow_op: None,
            slo: Vec::new(),
        }
    }
}

/// A running server; dropping it does **not** stop the threads — call
/// [`Server::shutdown`] (or send `SHUTDOWN` over the wire and
/// [`Server::join`]).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: JoinHandle<DrainSummary>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// spawns the accept loop and the recovery supervisor.
    pub fn start(engine: Arc<Engine>, addr: &str, opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let server_metrics = Arc::new(ServerMetrics::register(&engine, &opts.slo));

        let supervisor_engine = Arc::clone(&engine);
        let supervisor_stop = Arc::clone(&stop);
        let supervisor_opts = opts.clone();
        let supervisor = std::thread::spawn(move || {
            recovery_supervisor(supervisor_engine, supervisor_stop, supervisor_opts);
        });

        let live_conns = Arc::new(AtomicUsize::new(0));
        let accept_stop = Arc::clone(&stop);
        let accept_handle = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            for incoming in listener.incoming() {
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(mut stream) = incoming else { continue };
                if live_conns.load(Ordering::Relaxed) >= opts.max_conns.max(1) {
                    // Shed at the cap: a one-line refusal, then close.
                    server_metrics.shed_busy.inc();
                    let _ = writeln!(stream, "ERR BUSY too many connections");
                    continue;
                }
                engine.metrics().connections.inc();
                engine.metrics().active_connections.add(1.0);
                live_conns.fetch_add(1, Ordering::Relaxed);
                let engine = Arc::clone(&engine);
                let metrics = Arc::clone(&server_metrics);
                let stop = Arc::clone(&accept_stop);
                let live = Arc::clone(&live_conns);
                let conn_opts = opts.clone();
                conns.push(std::thread::spawn(move || {
                    let _ = handle_connection(stream, &engine, &metrics, &stop, &conn_opts);
                    engine.metrics().active_connections.add(-1.0);
                    live.fetch_sub(1, Ordering::Relaxed);
                }));
                conns.retain(|h| !h.is_finished());
            }
            // Stop accepting and wait for in-flight connections; each has
            // finished its apply, so every acknowledged write is in.
            for h in conns {
                let _ = h.join();
            }
            let _ = supervisor.join();
            // Final epoch + compaction so a clean restart replays nothing.
            engine.publish();
            let _ = engine.compact();
            let summary = DrainSummary {
                connections: engine.metrics().connections.get(),
                ops_applied: engine.metrics().ops_applied.get(),
            };
            tkc_obs::info!(
                "server drained: {} connections closed, {} ops applied",
                summary.connections,
                summary.ops_applied
            );
            summary
        });
        Ok(Server {
            addr: local,
            stop,
            accept_handle,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop and waits for every thread: in-flight
    /// connections finish and the engine is compacted. Returns the final
    /// drain accounting.
    pub fn shutdown(self) -> DrainSummary {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.accept_handle.join().unwrap_or_default()
    }

    /// Waits until some client sends `SHUTDOWN` (the accept loop exits on
    /// its own), then finishes the same graceful sequence. Returns the
    /// final drain accounting.
    pub fn join(self) -> DrainSummary {
        self.accept_handle.join().unwrap_or_default()
    }
}

/// Watches the engine state and drives [`Engine::recover`] whenever it
/// drops to read-only: capped exponential backoff with deterministic
/// jitter between attempts, resetting after each success.
fn recovery_supervisor(engine: Arc<Engine>, stop: Arc<AtomicBool>, opts: ServeOptions) {
    let mut rng = tkc_obs::process_nanos() | 1;
    let mut attempt: u32 = 0;
    while !stop.load(Ordering::Relaxed) {
        if engine.state() != EngineState::ReadOnly {
            attempt = 0;
            nap(&stop, Duration::from_millis(10));
            continue;
        }
        let base = opts.recover_backoff.max(Duration::from_millis(1));
        let exp = base.saturating_mul(1u32 << attempt.min(10));
        let capped = exp.min(opts.recover_backoff_cap.max(base));
        // Up to +25% jitter so restarting replicas don't retry in phase.
        // analyze: allow(panic-surface): divisor is `x / 4 + 1`, structurally nonzero
        let jitter_ns = tkc_faults::xorshift(&mut rng) % (capped.as_nanos() as u64 / 4 + 1);
        let backoff = capped + Duration::from_nanos(jitter_ns);
        engine
            .metrics()
            .recovery_backoff_seconds
            .record_duration(backoff);
        nap(&stop, backoff);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match engine.recover() {
            Ok(()) => attempt = 0,
            Err(e) => {
                attempt = attempt.saturating_add(1);
                tkc_obs::warn!("recovery attempt {attempt} failed: {e}");
            }
        }
    }
}

/// Sleeps `total` in small slices, returning early when `stop` is set.
fn nap(stop: &AtomicBool, total: Duration) {
    let slice = Duration::from_millis(10);
    let mut left = total;
    while !left.is_zero() && !stop.load(Ordering::Relaxed) {
        let step = left.min(slice);
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// Clean end of stream.
    Eof,
    /// The line exceeded the limit (prefix consumed; caller closes).
    TooLong,
    /// The read timeout expired.
    TimedOut,
}

/// Reads one `\n`-terminated line into `buf` without ever buffering more
/// than `max` bytes of it — the slow-loris/oversized-line guard. Raw
/// bytes, not UTF-8: the caller decodes lossily.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    buf.clear();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(LineRead::TimedOut)
            }
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(LineRead::Eof);
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if buf.len() + pos > max {
                reader.consume(pos + 1);
                return Ok(LineRead::TooLong);
            }
            // analyze: allow(panic-surface): `pos` comes from position() on this chunk
            #[allow(clippy::indexing_slicing)]
            buf.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            return Ok(LineRead::Line);
        }
        let take = chunk.len();
        if buf.len() + take > max {
            reader.consume(take);
            return Ok(LineRead::TooLong);
        }
        buf.extend_from_slice(chunk);
        reader.consume(take);
    }
}

/// Serves one connection until QUIT/EOF/timeout/shutdown/limit.
fn handle_connection(
    stream: TcpStream,
    engine: &Engine,
    metrics: &ServerMetrics,
    stop: &AtomicBool,
    opts: &ServeOptions,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(opts.read_timeout))?;
    // Request/response ping-pong over small writes: without TCP_NODELAY
    // the Nagle / delayed-ACK interaction stalls replies for tens of
    // milliseconds at the tail (bench_serve's client-vs-server p99
    // cross-check catches exactly this).
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut buf = Vec::new();
    let mut served = 0u64;
    // Root of this connection's span tree (inert unless tracing is on);
    // recorded with the connection's total lifetime when it closes.
    let _conn_span = SpanGuard::root("conn");
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        match read_bounded_line(&mut reader, &mut buf, opts.max_line_bytes)? {
            LineRead::Line => {}
            LineRead::Eof => return Ok(()),
            LineRead::TimedOut => {
                // Idle past the read timeout: reap the connection, and
                // make the reap observable instead of silent.
                metrics.conn_timeouts.inc();
                tkc_obs::warn!(
                    "connection idle past {:?}: reaped (peer {})",
                    opts.read_timeout,
                    out.peer_addr()
                        .map(|a| a.to_string())
                        .unwrap_or_else(|_| "unknown".to_string())
                );
                let _ = writeln!(out, "ERR read timeout");
                return Ok(());
            }
            LineRead::TooLong => {
                metrics.shed_line.inc();
                let _ = writeln!(out, "ERR line exceeds {} bytes", opts.max_line_bytes);
                return Ok(());
            }
        }
        let text = String::from_utf8_lossy(&buf);
        let line = text.trim();
        let parsed = {
            let _parse_span = SpanGuard::child("parse");
            parse_command(line)
        };
        let Some(parsed) = parsed else {
            continue; // blank line
        };
        if opts.request_budget > 0 {
            served += 1;
            if served > opts.request_budget {
                metrics.shed_budget.inc();
                let _ = writeln!(
                    out,
                    "ERR request budget of {} exhausted",
                    opts.request_budget
                );
                return Ok(());
            }
        }
        // Per-verb accounting keys off the raw first token so malformed
        // variants of a known verb still land in its family.
        let verb = line
            .split_whitespace()
            .next()
            .map(|t| {
                if t.len() <= 16 {
                    t.to_ascii_uppercase()
                } else {
                    String::new()
                }
            })
            .unwrap_or_default();
        let per_cmd = metrics.for_verb(&verb);
        per_cmd.requests.inc();
        let verb_static = static_verb(&verb);
        let mut req_span = SpanGuard::child(verb_static);
        req_span.attr("bytes", line.len() as u64);
        let trace_id = req_span.trace_id();
        let start = Instant::now();
        let flow = match parsed {
            Ok(cmd) => respond(cmd, engine, metrics, &mut reader, &mut out, opts)?,
            Err(e) => {
                writeln!(out, "ERR {e}")?;
                Flow::Continue
            }
        };
        let elapsed = start.elapsed();
        // Finish the request span before rendering its tree or recording
        // latency so the slow-op log sees the complete request.
        drop(req_span);
        per_cmd.seconds.record_duration(elapsed);
        metrics.slo.record(verb_static, elapsed);
        if let Some(threshold) = opts.slow_op {
            if tkc_obs::span::maybe_log_slow_op(verb_static, elapsed, threshold, trace_id) {
                metrics.slow_ops.inc();
            }
        }
        match flow {
            Flow::Continue => {}
            Flow::Quit => return Ok(()),
            Flow::Shutdown => {
                stop.store(true, Ordering::Relaxed);
                // Unblock the accept loop (self-connect is best-effort).
                if let Ok(addr) = out.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                return Ok(());
            }
        }
    }
}

enum Flow {
    Continue,
    Quit,
    Shutdown,
}

/// Maps an engine failure to its structured wire reply.
fn write_engine_err(out: &mut TcpStream, e: &EngineError) -> std::io::Result<()> {
    match e {
        EngineError::Degraded { reason } => writeln!(out, "ERR DEGRADED {reason}"),
        // The payload is the primary's address alone so a client can
        // redirect itself without parsing prose.
        EngineError::Readonly { primary } => writeln!(out, "ERR READONLY {primary}"),
        other => writeln!(out, "ERR {} {other}", other.wire_token()),
    }
}

/// Answers a single parsed command.
fn respond(
    cmd: Command,
    engine: &Engine,
    metrics: &ServerMetrics,
    reader: &mut BufReader<TcpStream>,
    out: &mut TcpStream,
    opts: &ServeOptions,
) -> std::io::Result<Flow> {
    let em = engine.metrics();
    let count_query = || {
        em.queries_served.inc();
    };
    match cmd {
        Command::Kappa(u, v) => {
            count_query();
            match engine.snapshot().kappa(u, v) {
                Some(k) => writeln!(out, "OK {k}")?,
                None => writeln!(out, "ERR no such edge")?,
            }
        }
        Command::MaxK => {
            count_query();
            writeln!(out, "OK {}", engine.snapshot().max_kappa())?;
        }
        Command::Truss(k) => {
            count_query();
            let t = engine.snapshot().truss(k);
            writeln!(
                out,
                "OK cores={} edges={} vertices={}",
                t.components, t.edges, t.vertices
            )?;
        }
        Command::Insert(u, v) => match engine.insert(u, v) {
            Ok(Some(k)) => writeln!(out, "OK kappa={k}")?,
            Ok(None) => writeln!(out, "OK noop")?,
            Err(e) => write_engine_err(out, &e)?,
        },
        Command::Remove(u, v) => match engine.remove(u, v) {
            Ok(true) => writeln!(out, "OK removed")?,
            Ok(false) => writeln!(out, "OK noop")?,
            Err(e) => write_engine_err(out, &e)?,
        },
        Command::Batch(n) => {
            let mut ops = Vec::with_capacity((n as usize).min(4096));
            let mut bad_op = None;
            let mut body = Vec::new();
            for i in 0..n {
                match read_bounded_line(reader, &mut body, opts.max_line_bytes)? {
                    LineRead::Line => {}
                    LineRead::Eof | LineRead::TimedOut => {
                        writeln!(out, "ERR batch cut short at op {i}")?;
                        return Ok(Flow::Quit);
                    }
                    LineRead::TooLong => {
                        metrics.shed_line.inc();
                        writeln!(out, "ERR line exceeds {} bytes", opts.max_line_bytes)?;
                        return Ok(Flow::Quit);
                    }
                }
                // After a malformed line, keep reading (and discarding) the
                // rest of the batch so none of it runs as a command.
                if bad_op.is_none() {
                    match parse_batch_line(String::from_utf8_lossy(&body).trim()) {
                        Some(op) => ops.push(op),
                        None => bad_op = Some(i),
                    }
                }
            }
            if let Some(i) = bad_op {
                writeln!(out, "ERR batch op {i}: expected '+ u v' or '- u v'")?;
                return Ok(Flow::Continue);
            }
            // `queued` is kept for wire compatibility; the reply is sent
            // only once the batch is applied and durable.
            match engine.apply(&ops) {
                Ok(_) => writeln!(out, "OK queued {n}")?,
                Err(e) => {
                    metrics.batches_dropped.inc();
                    write_engine_err(out, &e)?;
                }
            }
        }
        Command::Epoch => {
            count_query();
            writeln!(out, "OK {}", engine.publish())?;
        }
        Command::Stats => {
            count_query();
            write!(out, "OK\n{}.\n", engine.metrics_text())?;
        }
        Command::Metrics => {
            count_query();
            write!(out, "OK\n{}.\n", engine.prometheus_text())?;
        }
        Command::Slo => {
            count_query();
            write!(out, "OK\n{}.\n", metrics.slo.render_lines())?;
        }
        Command::Trace(n) => {
            count_query();
            write!(
                out,
                "OK\n{}.\n",
                TraceBuffer::global().tail_jsonl(n as usize)
            )?;
        }
        Command::Health => {
            count_query();
            let state = engine.state();
            match state {
                EngineState::Follower | EngineState::Diverged => {
                    match engine.replication_health() {
                        Some(detail) => writeln!(out, "OK {state} {detail}")?,
                        None => writeln!(out, "OK {state}")?,
                    }
                }
                _ => match engine.degraded_reason() {
                    None => writeln!(out, "OK {state}")?,
                    Some(reason) => writeln!(out, "OK {state} {reason}")?,
                },
            }
        }
        Command::Promote => match engine.promote() {
            Ok(term) => writeln!(out, "OK promoted term={term}")?,
            Err(e) => write_engine_err(out, &e)?,
        },
        Command::Ping => writeln!(out, "OK pong")?,
        Command::Quit => {
            writeln!(out, "OK bye")?;
            return Ok(Flow::Quit);
        }
        Command::Shutdown => {
            writeln!(out, "OK shutting down")?;
            return Ok(Flow::Shutdown);
        }
    }
    Ok(Flow::Continue)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;
    use crate::engine::EngineConfig;
    use tkc_faults::{Failpoint, FaultKind, FaultPlan, FaultSite};

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tkc_server_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

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
            self.recv()
        }

        fn recv(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        }

        fn read_until_dot(&mut self) -> Vec<String> {
            let mut lines = Vec::new();
            loop {
                let mut line = String::new();
                self.reader.read_line(&mut line).unwrap();
                let t = line.trim_end();
                if t == "." {
                    return lines;
                }
                lines.push(t.to_string());
            }
        }
    }

    fn test_opts() -> ServeOptions {
        ServeOptions {
            read_timeout: Duration::from_secs(2),
            ..ServeOptions::default()
        }
    }

    fn start_with(
        name: &str,
        configure: impl FnOnce(&mut EngineConfig),
        opts: ServeOptions,
    ) -> (Server, SocketAddr, Arc<Engine>) {
        let mut config = EngineConfig {
            fsync: false,
            epoch_ops: 0,
            compact_bytes: 0,
            ..EngineConfig::new(temp_dir(name))
        };
        configure(&mut config);
        let engine = Arc::new(Engine::open(config).unwrap());
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", opts).unwrap();
        let addr = server.local_addr();
        (server, addr, engine)
    }

    fn start_server(name: &str) -> (Server, SocketAddr) {
        let (server, addr, _) = start_with(name, |_| {}, test_opts());
        (server, addr)
    }

    #[test]
    fn protocol_end_to_end_over_loopback() {
        let (server, addr) = start_server("proto");
        let mut c = Client::connect(addr);
        assert_eq!(c.send("PING"), "OK pong");
        // Build K4 on 0..4 synchronously.
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)] {
            assert!(c.send(&format!("INSERT {u} {v}")).starts_with("OK"));
        }
        assert_eq!(c.send("INSERT 2 3"), "OK kappa=2");
        assert_eq!(c.send("INSERT 2 3"), "OK noop");
        // Reads see the snapshot, which is stale until EPOCH.
        assert_eq!(c.send("KAPPA 2 3"), "ERR no such edge");
        assert_eq!(c.send("EPOCH"), "OK 2");
        assert_eq!(c.send("KAPPA 2 3"), "OK 2");
        assert_eq!(c.send("MAXK"), "OK 2");
        assert_eq!(c.send("TRUSS 2"), "OK cores=1 edges=6 vertices=4");
        assert_eq!(c.send("REMOVE 0 1"), "OK removed");
        assert_eq!(c.send("REMOVE 0 1"), "OK noop");
        assert_eq!(c.send("HEALTH"), "OK serving");
        // Malformed input errors without dropping the connection.
        assert!(c.send("KAPPA one two").starts_with("ERR"));
        assert!(c.send("FROBNICATE").starts_with("ERR"));
        assert_eq!(c.send("QUIT"), "OK bye");

        let mut c2 = Client::connect(addr);
        assert_eq!(c2.send("SHUTDOWN"), "OK shutting down");
        server.join();
    }

    /// The `ops_applied` line of `STATS`.
    fn ops_applied(c: &mut Client) -> u64 {
        assert_eq!(c.send("STATS"), "OK");
        c.read_until_dot()
            .iter()
            .find_map(|l| l.strip_prefix("ops_applied "))
            .unwrap()
            .parse()
            .unwrap()
    }

    #[test]
    fn batch_is_applied_before_its_reply() {
        let (server, addr, engine) = start_with("batch", |_| {}, test_opts());
        let mut c = Client::connect(addr);
        assert_eq!(c.send("BATCH 3\n+ 0 1\n+ 1 2\n+ 2 0"), "OK queued 3");
        // The reply means applied and in the WAL: no polling.
        assert_eq!(ops_applied(&mut c), 3);
        assert_eq!(engine.applied_seq(), 3);
        assert_eq!(c.send("EPOCH"), "OK 2");
        assert_eq!(c.send("KAPPA 0 1"), "OK 1");
        server.shutdown();
    }

    #[test]
    fn slo_trace_verbs_and_slow_op_log_end_to_end() {
        let _guard = crate::global_trace_test_guard();
        let trace = TraceBuffer::global();
        trace.clear();
        trace.set_enabled(true);
        let opts = ServeOptions {
            slow_op: Some(Duration::from_nanos(0)),
            slo: tkc_obs::slo::parse_slo_spec("INSERT=500,KAPPA=500").unwrap(),
            ..test_opts()
        };
        let (server, addr, _engine) = start_with("slo_trace", |_| {}, opts);
        let mut c = Client::connect(addr);
        assert_eq!(c.send("INSERT 0 1"), "OK kappa=0");
        assert_eq!(c.send("SLO"), "OK");
        let lines = c.read_until_dot();
        assert!(
            lines.iter().any(|l| l.starts_with("INSERT target_ms=500")),
            "{lines:?}"
        );
        assert!(lines.iter().any(|l| l.contains("status=OK")), "{lines:?}");
        assert_eq!(c.send("TRACE 100"), "OK");
        let jsonl = c.read_until_dot();
        assert!(
            jsonl.iter().all(|l| l.contains("\"kind\":\"span\"")),
            "every trace line is a span: {jsonl:?}"
        );
        assert!(
            jsonl.iter().any(|l| l.contains("\"name\":\"INSERT\"")),
            "{jsonl:?}"
        );
        assert!(
            jsonl
                .iter()
                .any(|l| l.contains("\"name\":\"engine.apply\"")),
            "{jsonl:?}"
        );
        assert_eq!(c.send("METRICS"), "OK");
        let text = c.read_until_dot().join("\n");
        assert!(text.contains("tkc_slo_burn_rate{cmd=\"INSERT\"}"), "{text}");
        let slow = text
            .lines()
            .find_map(|l| l.strip_prefix("tkc_server_slow_ops_total "))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap();
        assert!(slow >= 1, "every request is over the 0ns threshold");
        server.shutdown();
        trace.set_enabled(false);
        trace.clear();
    }

    #[test]
    fn metrics_command_returns_prometheus_text() {
        let (server, addr) = start_server("metrics_cmd");
        let mut c = Client::connect(addr);
        assert_eq!(c.send("INSERT 0 1"), "OK kappa=0");
        assert_eq!(c.send("METRICS"), "OK");
        let lines = c.read_until_dot();
        let text = lines.join("\n");
        for series in [
            "tkc_engine_ops_applied_total 1",
            "tkc_server_requests_total{cmd=\"INSERT\"} 1",
            "tkc_server_requests_total{cmd=\"METRICS\"} 1",
            "tkc_server_command_seconds_count{cmd=\"INSERT\"} 1",
            "tkc_server_active_connections 1",
            "tkc_engine_state{state=\"serving\"} 1",
            "tkc_engine_state{state=\"read_only\"} 0",
            "tkc_conn_timeouts_total 0",
        ] {
            assert!(text.contains(series), "missing {series:?} in:\n{text}");
        }
        let summary = server.shutdown();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.ops_applied, 1);
    }

    #[test]
    fn bad_batch_lines_are_rejected() {
        let (server, addr) = start_server("badbatch");
        let mut c = Client::connect(addr);
        // A bad first line, and a bad line with good ones after it: the
        // rest of the batch is discarded, never run as commands, so each
        // request gets exactly one reply and nothing is applied.
        for batch in ["BATCH 1\n* 0 1", "BATCH 3\n* 0 1\n+ 1 2\n+ 2 0"] {
            let reply = c.send(batch);
            assert!(reply.starts_with("ERR batch op 0"), "got {reply}");
            assert_eq!(c.send("PING"), "OK pong"); // connection survives
        }
        assert_eq!(ops_applied(&mut c), 0);
        server.shutdown();
    }

    #[test]
    fn stalled_client_is_reaped_and_counted() {
        let (server, addr, engine) = start_with(
            "stalled",
            |_| {},
            ServeOptions {
                read_timeout: Duration::from_millis(100),
                ..test_opts()
            },
        );
        let mut c = Client::connect(addr);
        // Say nothing. The reaper should close us with an ERR line.
        assert_eq!(c.recv(), "ERR read timeout");
        // And the reap is counted, not silent.
        let text = engine.prometheus_text();
        assert!(
            text.contains("tkc_conn_timeouts_total 1"),
            "timeout not counted in:\n{text}"
        );
        server.shutdown();
    }

    #[test]
    fn oversized_lines_are_rejected_with_bounded_memory() {
        let (server, addr, engine) = start_with(
            "longline",
            |_| {},
            ServeOptions {
                max_line_bytes: 256,
                ..test_opts()
            },
        );
        let mut c = Client::connect(addr);
        let big = "PING ".to_string() + &"x".repeat(4096);
        writeln!(c.stream, "{big}").unwrap();
        assert_eq!(c.recv(), "ERR line exceeds 256 bytes");
        assert!(engine
            .prometheus_text()
            .contains("tkc_server_shed_total{reason=\"line_too_long\"} 1"));
        server.shutdown();
    }

    #[test]
    fn connection_cap_sheds_with_err_busy() {
        let (server, addr, engine) = start_with(
            "cap",
            |_| {},
            ServeOptions {
                max_conns: 1,
                ..test_opts()
            },
        );
        let mut first = Client::connect(addr);
        assert_eq!(first.send("PING"), "OK pong"); // first conn is live
        let mut second = Client::connect(addr);
        assert_eq!(second.recv(), "ERR BUSY too many connections");
        assert!(engine
            .prometheus_text()
            .contains("tkc_server_shed_total{reason=\"busy\"} 1"));
        assert_eq!(first.send("QUIT"), "OK bye");
        server.shutdown();
    }

    #[test]
    fn request_budget_closes_chatty_connections() {
        let (server, addr, _engine) = start_with(
            "budget",
            |_| {},
            ServeOptions {
                request_budget: 3,
                ..test_opts()
            },
        );
        let mut c = Client::connect(addr);
        for _ in 0..3 {
            assert_eq!(c.send("PING"), "OK pong");
        }
        assert_eq!(c.send("PING"), "ERR request budget of 3 exhausted");
        server.shutdown();
    }

    #[test]
    fn degraded_engine_serves_reads_and_recovers() {
        let plan = Arc::new(FaultPlan::with_points(
            vec![Failpoint {
                // Append 1 is the WAL magic header; appends 2-3 are the
                // first two INSERTs. Fail the third insert (append 4).
                site: FaultSite::Append,
                kind: FaultKind::Enospc,
                trigger: 4,
                count: 1,
            }],
            11,
        ));
        let inject = Arc::clone(&plan);
        let (server, addr, engine) = start_with(
            "degraded",
            move |config| config.fault_plan = Some(inject),
            ServeOptions {
                recover_backoff: Duration::from_millis(500),
                ..test_opts()
            },
        );
        let mut c = Client::connect(addr);
        assert_eq!(c.send("INSERT 0 1"), "OK kappa=0");
        assert_eq!(c.send("INSERT 1 2"), "OK kappa=0");
        assert_eq!(c.send("EPOCH"), "OK 2");
        // The injected ENOSPC drops the engine to read-only.
        let reply = c.send("INSERT 2 0");
        assert!(reply.starts_with("ERR WAL"), "got {reply}");
        assert!(c.send("HEALTH").starts_with("OK read_only"));
        // Reads keep serving the last epoch while degraded.
        assert_eq!(c.send("KAPPA 0 1"), "OK 0");
        // A BATCH is refused, not acknowledged and dropped. The
        // supervisor's backoff (500 ms) keeps the engine degraded here.
        let applied = ops_applied(&mut c);
        let reply = c.send("BATCH 1\n+ 2 0");
        assert!(reply.starts_with("ERR DEGRADED"), "got {reply}");
        assert_eq!(ops_applied(&mut c), applied);
        let next = c.send("INSERT 2 0");
        assert!(
            next.starts_with("ERR DEGRADED") || next.starts_with("OK"),
            "got {next}"
        );
        assert!(plan.injected_total() >= 1);
        // The supervisor recovers the engine; writes come back.
        let mut recovered = false;
        for _ in 0..100 {
            if c.send("HEALTH") == "OK serving" {
                recovered = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(recovered, "engine never recovered");
        assert!(c.send("INSERT 2 0").starts_with("OK"));
        let text = engine.prometheus_text();
        assert!(text.contains("tkc_recoveries_total 1"), "in:\n{text}");
        assert!(text.contains("tkc_engine_degraded_total 1"), "in:\n{text}");
        assert!(text.contains("tkc_faults_injected_total 1"), "in:\n{text}");
        server.shutdown();
    }

    #[test]
    fn vertex_cap_rejects_hostile_inserts_without_degrading() {
        let (server, addr, _engine) =
            start_with("vcap", |config| config.max_vertices = 1 << 10, test_opts());
        let mut c = Client::connect(addr);
        let reply = c.send("INSERT 4294967295 0");
        assert!(reply.starts_with("ERR INVALID"), "got {reply}");
        // The same op in a BATCH is refused whole, not acknowledged.
        let reply = c.send("BATCH 2\n+ 0 1\n+ 4294967295 0");
        assert!(reply.starts_with("ERR INVALID"), "got {reply}");
        assert_eq!(ops_applied(&mut c), 0);
        // The engine is still healthy and writable.
        assert_eq!(c.send("HEALTH"), "OK serving");
        assert_eq!(c.send("INSERT 0 1"), "OK kappa=0");
        server.shutdown();
    }

    #[test]
    fn promote_on_a_standalone_node_is_invalid() {
        let (server, addr) = start_server("promote_standalone");
        let mut c = Client::connect(addr);
        let reply = c.send("PROMOTE");
        assert!(
            reply.starts_with("ERR INVALID") && reply.contains("not a follower"),
            "got {reply}"
        );
        server.shutdown();
    }

    #[test]
    fn health_and_slo_answer_in_every_degraded_state() {
        let opts = ServeOptions {
            slo: tkc_obs::slo::parse_slo_spec("HEALTH=500").unwrap(),
            ..test_opts()
        };
        let (server, addr, engine) = start_with("health_states", |_| {}, opts);
        let mut c = Client::connect(addr);
        // Follower / Diverged without an attached replication subsystem
        // still render their state (no lag detail to show).
        for (state, expect) in [
            (EngineState::Follower, "OK follower"),
            (EngineState::Diverged, "OK diverged"),
            (EngineState::Recovering, "OK recovering"),
            (EngineState::Serving, "OK serving"),
        ] {
            engine.set_state(state);
            assert_eq!(c.send("HEALTH"), expect);
            assert_eq!(c.send("SLO"), "OK");
            let lines = c.read_until_dot();
            assert!(
                lines.iter().any(|l| l.starts_with("HEALTH target_ms=500")),
                "{lines:?}"
            );
        }
        // Follower-role writes are redirected, not degraded.
        engine.set_role(crate::repl::Role::Follower);
        engine.set_state(EngineState::Follower);
        let reply = c.send("INSERT 0 1");
        assert_eq!(reply, "ERR READONLY unknown");
        engine.set_role(crate::repl::Role::Standalone);
        engine.set_state(EngineState::Serving);
        server.shutdown();
    }

    /// Boots a (server, replication) pair sharing one engine.
    fn start_repl_node(
        name: &str,
        repl_addr: Option<String>,
        follow: Option<SocketAddr>,
    ) -> (Server, crate::repl::ReplServer, SocketAddr, Arc<Engine>) {
        let (server, addr, engine) = start_with(name, |_| {}, test_opts());
        let repl = crate::repl::start(
            &engine,
            crate::repl::ReplOptions {
                repl_addr,
                follow: follow.map(|a| a.to_string()),
                stamp_interval_ops: 1,
                ..Default::default()
            },
        )
        .unwrap();
        (server, repl, addr, engine)
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        for _ in 0..400 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn two_node_replication_promote_and_fencing_end_to_end() {
        let (p_server, p_repl, p_addr, p_engine) =
            start_repl_node("repl_primary", Some("127.0.0.1:0".to_string()), None);
        let repl_addr = p_repl.repl_addr().unwrap();
        let (f_server, f_repl, f_addr, f_engine) =
            start_repl_node("repl_follower", None, Some(repl_addr));
        assert_eq!(p_engine.role(), crate::repl::Role::Primary);
        assert_eq!(f_engine.role(), crate::repl::Role::Follower);

        // Write a triangle to the primary; the follower converges.
        let mut p = Client::connect(p_addr);
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            assert!(p.send(&format!("INSERT {u} {v}")).starts_with("OK"));
        }
        wait_until("follower catch-up", || f_engine.applied_seq() == 3);
        let mut f = Client::connect(f_addr);
        assert_eq!(f.send("EPOCH"), "OK 2");
        assert_eq!(f.send("KAPPA 0 1"), "OK 1");

        // Follower writes are redirected to the primary's repl address.
        assert_eq!(f.send("INSERT 5 6"), format!("ERR READONLY {repl_addr}"));
        assert_eq!(
            f.send("BATCH 1\n+ 5 6"),
            format!("ERR READONLY {repl_addr}")
        );
        assert_eq!(ops_applied(&mut f), 3);
        let health = f.send("HEALTH");
        assert!(
            health.starts_with(&format!("OK follower following {repl_addr}"))
                && health.contains("lag_seq=0"),
            "got {health}"
        );
        let stats = {
            assert_eq!(f.send("STATS"), "OK");
            f.read_until_dot()
        };
        assert!(stats.iter().any(|l| l == "repl_ops_applied 3"), "{stats:?}");
        assert!(stats.iter().any(|l| l == "role follower"), "{stats:?}");

        // Promote the follower: it becomes writable at term 1 and the
        // old primary is fenced read-only.
        assert_eq!(f.send("PROMOTE"), "OK promoted term=1");
        assert!(
            f.send("INSERT 5 6").starts_with("OK"),
            "promoted node writes"
        );
        wait_until("old primary fenced", || {
            p_engine.state() == EngineState::ReadOnly
        });
        let refused = p.send("INSERT 7 8");
        assert!(refused.starts_with("ERR DEGRADED"), "got {refused}");
        assert_eq!(p_engine.term(), 1);
        // The fence is sticky: the recovery supervisor must not
        // resurrect the superseded primary.
        p_engine.recover().unwrap();
        assert_eq!(p_engine.state(), EngineState::ReadOnly);

        f_repl.shutdown();
        p_repl.shutdown();
        f_server.shutdown();
        p_server.shutdown();
    }

    #[test]
    fn follower_bootstraps_when_primary_log_is_compacted_past_it() {
        // Prime the primary with history *before* replication starts, so
        // the hub's base is already past a fresh follower's seq 0 and
        // the only way to converge is a packed-store bootstrap.
        let (p_server, p_addr, p_engine) = start_with("repl_boot_primary", |_| {}, test_opts());
        let mut p = Client::connect(p_addr);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)] {
            assert!(p.send(&format!("INSERT {u} {v}")).starts_with("OK"));
        }
        assert_eq!(p_engine.applied_seq(), 5);
        let p_repl = crate::repl::start(
            &p_engine,
            crate::repl::ReplOptions {
                repl_addr: Some("127.0.0.1:0".to_string()),
                stamp_interval_ops: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let repl_addr = p_repl.repl_addr().unwrap();

        let (f_server, f_repl, f_addr, f_engine) =
            start_repl_node("repl_boot_follower", None, Some(repl_addr));
        wait_until("bootstrap catch-up", || f_engine.applied_seq() == 5);
        let mut f = Client::connect(f_addr);
        let stats = {
            assert_eq!(f.send("STATS"), "OK");
            f.read_until_dot()
        };
        assert!(stats.iter().any(|l| l == "repl_bootstraps 1"), "{stats:?}");
        // Bootstrap already published an epoch; a fresh one still works.
        assert!(f.send("EPOCH").starts_with("OK"));
        assert_eq!(f.send("KAPPA 0 1"), "OK 1");
        // Live tailing continues after the bootstrap.
        assert!(p.send("INSERT 2 3").starts_with("OK"));
        wait_until("post-bootstrap tail", || f_engine.applied_seq() == 6);
        assert_eq!(
            f_engine.kappa_stamp_now(),
            p_engine.kappa_stamp_now(),
            "replicas diverged"
        );

        f_repl.shutdown();
        p_repl.shutdown();
        f_server.shutdown();
        p_server.shutdown();
    }
}
