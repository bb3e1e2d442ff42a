//! `bench_serve` — the served-latency trajectory (`BENCH_serve.json`).
//!
//! Boots the **release `tkc serve` binary** on ephemeral loopback ports
//! and drives it with an open-loop multi-connection load generator: each
//! connection sends requests on a fixed schedule (arrival times are
//! `start + k/rate`, independent of how fast replies come back), so a
//! slow server shows up as queueing delay in the numbers instead of
//! silently throttling the generator — the coordinated-omission-free
//! way to measure a served latency distribution.
//!
//! The verb mix is seeded and deterministic (`TKC_SEED`): reads
//! (`KAPPA`/`MAXK`/`TRUSS`) against durable `INSERT` writes. Two client
//! latencies are recorded per request — scheduled-time latency (includes
//! open-loop queueing) and pure RTT — and reduced to exact per-verb
//! p50/p90/p99 from the sorted samples. The server's own
//! `tkc_server_command_seconds` histograms are then scraped from `/metrics`
//! and folded to bucket-upper-bound quantiles; the run **hard-asserts**
//! that client RTT p99 and the server's p99 bound agree within a
//! generous factor, so a unit mix-up or a dead histogram fails the
//! bench rather than producing a quietly wrong record. The `SLO` and
//! `TRACE` verbs are exercised on the way out, and the server's span
//! trace lands at `--trace-out` (default `target/bench_serve_trace.jsonl`)
//! for `tkc obs report`.
//!
//! ```text
//! cargo run --release -p tkc-bench --bin bench_serve            # full
//! cargo run --release -p tkc-bench --bin bench_serve -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` shrinks connections/requests for CI; `--out <path>`
//! overrides the JSON destination (default `BENCH_serve.json`); `--bin
//! <path>` points at the server binary (default `target/release/tkc`);
//! `--trace-out <path>` relocates the span trace.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tkc_bench::{host_json, seed_from_env};

/// The load mix: verb name, sampling weight, and whether it writes.
const MIX: [(&str, u32); 4] = [("KAPPA", 50), ("MAXK", 15), ("TRUSS", 15), ("INSERT", 20)];

/// One connection's worth of samples: `(verb index, scheduled-time
/// latency, rtt)` per request.
type Samples = Vec<(usize, Duration, Duration)>;

/// A blocking line-protocol client over one TCP connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    // The benchmark measures the server, not Nagle.
                    stream.set_nodelay(true).unwrap();
                    let reader = BufReader::new(stream.try_clone().unwrap());
                    return Client { stream, reader };
                }
                Err(e) => {
                    assert!(Instant::now() < deadline, "connect {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Sends one command and reads its single-line reply.
    fn send(&mut self, cmd: &str) -> String {
        writeln!(self.stream, "{cmd}").expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply");
        line.trim_end().to_string()
    }

    /// Reads a `.`-terminated multi-line body after an `OK` status line.
    fn send_block(&mut self, cmd: &str) -> Vec<String> {
        let status = self.send(cmd);
        assert_eq!(status, "OK", "{cmd} -> {status}");
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("block line");
            let line = line.trim_end().to_string();
            if line == "." {
                return lines;
            }
            lines.push(line);
        }
    }
}

/// Exact quantile from a sorted sample vector (nearest-rank on the
/// inclusive index scale, the same convention `numpy.percentile`'s
/// `lower` interpolation rounds to).
fn quantile(sorted: &[Duration], q: f64) -> Duration {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One open-loop load connection: `n` requests at `rate` per second,
/// latency measured from each request's *scheduled* time.
fn load_connection(addr: SocketAddr, seed: u64, n: usize, rate: f64, vertices: u32) -> Samples {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut client = Client::connect(addr);
    assert_eq!(client.send("PING"), "OK pong");
    let period = Duration::from_secs_f64(1.0 / rate);
    let total_weight: u32 = MIX.iter().map(|m| m.1).sum();
    let mut samples = Vec::with_capacity(n);
    let start = Instant::now();
    for k in 0..n {
        let scheduled = start + period.mul_f64(k as f64);
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let mut pick = rng.gen_range(0u32..total_weight);
        let verb_idx = MIX
            .iter()
            .position(|(_, w)| {
                if pick < *w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .unwrap();
        let u = rng.gen_range(0u32..vertices);
        let v = (u + 1 + rng.gen_range(0u32..vertices - 1)) % vertices;
        let cmd = match MIX[verb_idx].0 {
            "KAPPA" => format!("KAPPA {u} {v}"),
            "MAXK" => "MAXK".to_string(),
            "TRUSS" => format!("TRUSS {}", rng.gen_range(1u32..4)),
            _ => format!("INSERT {u} {v}"),
        };
        let sent = Instant::now();
        let reply = client.send(&cmd);
        let done = Instant::now();
        assert!(
            reply.starts_with("OK") || reply == "ERR no such edge",
            "{cmd} -> {reply}"
        );
        samples.push((verb_idx, done - scheduled, done - sent));
    }
    client.send("QUIT");
    samples
}

/// Pulls per-verb bucket-bound quantiles out of a `/metrics` scrape:
/// returns `(count, p50, p90, p99)` upper bounds in seconds for one
/// `cmd` label of `tkc_server_command_seconds`.
fn server_histogram(metrics: &str, verb: &str) -> Option<(u64, f64, f64, f64)> {
    let bucket_prefix = format!("tkc_server_command_seconds_bucket{{cmd=\"{verb}\"");
    let count_prefix = format!("tkc_server_command_seconds_count{{cmd=\"{verb}\"}}");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    let mut count = 0u64;
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix(&bucket_prefix) {
            let le_raw = rest
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())?;
            let le = if le_raw == "+Inf" {
                f64::INFINITY
            } else {
                le_raw.parse().ok()?
            };
            let value: f64 = line.rsplit(' ').next()?.parse().ok()?;
            buckets.push((le, value));
        } else if let Some(rest) = line.strip_prefix(&count_prefix) {
            count = rest.trim().parse().ok()?;
        }
    }
    if buckets.is_empty() || count == 0 {
        return None;
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = count as f64;
    let bound = |q: f64| -> f64 {
        buckets
            .iter()
            .find(|(_, cum)| *cum >= q * total)
            .map(|(le, _)| *le)
            .unwrap_or(f64::INFINITY)
    };
    Some((count, bound(0.5), bound(0.9), bound(0.99)))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Boots one `tkc serve` process for the replication phase and returns
/// the child, its client address, the replication listen address (when
/// started with `--repl-addr`), and the stdout drain thread.
fn boot_repl_node(
    bin: &str,
    state_dir: &std::path::Path,
    tag: &'static str,
    extra: &[&str],
) -> (
    std::process::Child,
    SocketAddr,
    Option<String>,
    std::thread::JoinHandle<()>,
) {
    let mut proc = std::process::Command::new(bin)
        .arg("serve")
        .arg(state_dir)
        .args(["--addr", "127.0.0.1:0", "--no-fsync"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stdout = proc.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut addr: Option<SocketAddr> = None;
    let mut repl_addr: Option<String> = None;
    for line in lines.by_ref() {
        let line = line.expect("server stdout");
        println!("[{tag}] {line}");
        if let Some(rest) = line.strip_prefix("replication listening on ") {
            repl_addr = Some(rest.trim().to_string());
        }
        if let Some(rest) = line.strip_prefix("tkc-engine listening on ") {
            addr = Some(rest.trim().parse().expect("serve addr"));
            break;
        }
    }
    let drain = std::thread::spawn(move || {
        for line in lines.by_ref().map_while(Result::ok) {
            println!("[{tag}] {line}");
        }
    });
    (
        proc,
        addr.unwrap_or_else(|| panic!("{tag} never printed its address")),
        repl_addr,
        drain,
    )
}

/// The replication phase: a primary/follower pair on loopback. Measures
/// (a) write-to-follower-visibility lag — one fresh edge per sample is
/// inserted at the primary and the follower is polled until `KAPPA`
/// sees it — and (b) follower-read service latency under the same
/// open-loop discipline as the standalone phase. Returns the
/// `"replication"` JSON fragment for `BENCH_serve.json`.
fn replication_phase(bin: &str, quick: bool, seed: u64) -> String {
    let (preload_edges, lag_samples, read_conns, reads_per_conn, read_rate) = if quick {
        (200u32, 40usize, 2usize, 400usize, 400.0f64)
    } else {
        (1000, 200, 4, 1200, 500.0)
    };
    let vertices: u32 = if quick { 120 } else { 600 };

    let root = std::env::temp_dir().join(format!("tkc_bench_repl_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create repl bench dirs");
    let (mut p_proc, p_addr, p_repl, p_drain) = boot_repl_node(
        bin,
        &root.join("primary"),
        "primary",
        &["--repl-addr", "127.0.0.1:0"],
    );
    let p_repl = p_repl.expect("primary never printed its replication address");
    let (mut f_proc, f_addr, _, f_drain) = boot_repl_node(
        bin,
        &root.join("follower"),
        "follower",
        &["--follow", &p_repl],
    );

    // Preload through the primary, then wait for the follower to drain.
    let mut primary = Client::connect(p_addr);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e17);
    let mut batch = format!("BATCH {preload_edges}\n");
    for _ in 0..preload_edges {
        let u = rng.gen_range(0u32..vertices);
        let v = (u + 1 + rng.gen_range(0u32..vertices - 1)) % vertices;
        batch.push_str(&format!("+ {u} {v}\n"));
    }
    primary.stream.write_all(batch.as_bytes()).expect("preload");
    let mut line = String::new();
    primary.reader.read_line(&mut line).expect("preload reply");
    assert_eq!(line.trim_end(), format!("OK queued {preload_edges}"));
    // The reply means the batch is applied: the primary's seq covers it.
    let preloaded = format!("seq {preload_edges}");
    assert!(primary.send_block("STATS").contains(&preloaded));
    assert!(primary.send("EPOCH").starts_with("OK"));
    let mut follower = Client::connect(f_addr);
    let drained = |c: &mut Client| c.send_block("STATS").contains(&preloaded);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !drained(&mut follower) {
        assert!(
            Instant::now() < deadline,
            "follower preload lag never drained"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let redirected = follower.send("INSERT 0 1");
    assert!(
        redirected.starts_with("ERR READONLY"),
        "follower accepted a write: {redirected}"
    );

    // (a) Replication lag: each sample inserts one edge between fresh
    // vertices at the primary and polls the follower's applied-seq
    // watermark (`STATS seq`) until it covers the write — wall time
    // from the primary's OK to the op being applied on the follower.
    // Reads are epochal on both roles (publish every `epoch_ops`), so
    // the watermark, not `KAPPA` visibility, is the replication lag.
    let follower_seq = |c: &mut Client| -> u64 {
        c.send_block("STATS")
            .iter()
            .find_map(|l| l.strip_prefix("seq ").and_then(|v| v.trim().parse().ok()))
            .expect("STATS without a seq watermark")
    };
    let mut lags: Vec<Duration> = Vec::with_capacity(lag_samples);
    for i in 0..lag_samples as u32 {
        let (u, v) = (vertices + 2 * i, vertices + 2 * i + 1);
        let target = u64::from(preload_edges + i + 1);
        let reply = primary.send(&format!("INSERT {u} {v}"));
        assert!(reply.starts_with("OK"), "INSERT {u} {v} -> {reply}");
        let sent = Instant::now();
        while follower_seq(&mut follower) < target {
            assert!(
                sent.elapsed() < Duration::from_secs(30),
                "seq {target} never reached the follower"
            );
        }
        lags.push(sent.elapsed());
    }
    lags.sort_unstable();
    // Epochal read-your-write: once the watermark covers the writes, a
    // forced publish makes the freshest edge readable on the follower.
    assert!(follower.send("EPOCH").starts_with("OK"));
    let last = vertices + 2 * (lag_samples as u32 - 1);
    let reply = follower.send(&format!("KAPPA {last} {}", last + 1));
    assert!(reply.starts_with("OK"), "follower read-your-write: {reply}");

    // (b) Follower reads under open-loop load (reads only: the follower
    // redirects writes, so the mix is the read verbs re-weighted).
    let read_start = Instant::now();
    let handles: Vec<_> = (0..read_conns)
        .map(|i| {
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0xf0 ^ (i as u64) << 8);
                let mut client = Client::connect(f_addr);
                let period = Duration::from_secs_f64(1.0 / read_rate);
                let mut samples: Vec<(Duration, Duration)> = Vec::with_capacity(reads_per_conn);
                let start = Instant::now();
                for k in 0..reads_per_conn {
                    let scheduled = start + period.mul_f64(k as f64);
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let u = rng.gen_range(0u32..vertices);
                    let v = (u + 1 + rng.gen_range(0u32..vertices - 1)) % vertices;
                    let cmd = match k % 4 {
                        0 => "MAXK".to_string(),
                        1 => format!("TRUSS {}", rng.gen_range(1u32..4)),
                        _ => format!("KAPPA {u} {v}"),
                    };
                    let sent = Instant::now();
                    let reply = client.send(&cmd);
                    let done = Instant::now();
                    assert!(
                        reply.starts_with("OK") || reply == "ERR no such edge",
                        "{cmd} -> {reply}"
                    );
                    samples.push((done - scheduled, done - sent));
                }
                client.send("QUIT");
                samples
            })
        })
        .collect();
    let mut sched: Vec<Duration> = Vec::new();
    let mut rtt: Vec<Duration> = Vec::new();
    for h in handles {
        for (s, r) in h.join().expect("follower read connection panicked") {
            sched.push(s);
            rtt.push(r);
        }
    }
    let read_elapsed = read_start.elapsed();
    sched.sort_unstable();
    rtt.sort_unstable();

    tkc_obs::info!(
        "  replication: lag p50/p90/p99 {:.3}/{:.3}/{:.3} ms over {} writes; \
         follower reads {} reqs p50/p90/p99 {:.3}/{:.3}/{:.3} ms (rtt p99 {:.3} ms)",
        ms(quantile(&lags, 0.5)),
        ms(quantile(&lags, 0.9)),
        ms(quantile(&lags, 0.99)),
        lags.len(),
        rtt.len(),
        ms(quantile(&sched, 0.5)),
        ms(quantile(&sched, 0.9)),
        ms(quantile(&sched, 0.99)),
        ms(quantile(&rtt, 0.99)),
    );

    assert_eq!(follower.send("SHUTDOWN"), "OK shutting down");
    assert!(f_proc.wait().expect("follower wait").success());
    f_drain.join().expect("follower drain");
    assert_eq!(primary.send("SHUTDOWN"), "OK shutting down");
    assert!(p_proc.wait().expect("primary wait").success());
    p_drain.join().expect("primary drain");
    let _ = std::fs::remove_dir_all(&root);

    format!(
        concat!(
            "  \"replication\": {{\n",
            "    \"lag\": {{\"samples\":{},\"p50_ms\":{:.3},\"p90_ms\":{:.3},\"p99_ms\":{:.3}}},\n",
            "    \"follower_read\": {{\"count\":{},\"open_loop_rate_per_conn\":{:.0},",
            "\"load_millis\":{:.1},\"p50_ms\":{:.3},\"p90_ms\":{:.3},\"p99_ms\":{:.3},",
            "\"rtt_p50_ms\":{:.3},\"rtt_p99_ms\":{:.3}}}\n",
            "  }}"
        ),
        lags.len(),
        ms(quantile(&lags, 0.5)),
        ms(quantile(&lags, 0.9)),
        ms(quantile(&lags, 0.99)),
        rtt.len(),
        read_rate,
        ms(read_elapsed),
        ms(quantile(&sched, 0.5)),
        ms(quantile(&sched, 0.9)),
        ms(quantile(&sched, 0.99)),
        ms(quantile(&rtt, 0.5)),
        ms(quantile(&rtt, 0.99)),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let bin = flag("--bin").unwrap_or_else(|| "target/release/tkc".to_string());
    let trace_out = flag("--trace-out").unwrap_or_else(|| "target/bench_serve_trace.jsonl".into());
    let seed = seed_from_env();
    // Full mode keeps the graph sparse (mean degree ~6 after preload):
    // INSERT cascade cost grows superlinearly with density, and an
    // offered rate the writer cannot sustain turns the scheduled-time
    // percentiles into a queueing-delay measurement instead of a
    // service-latency trajectory.
    let (conns, requests_per_conn, rate) = if quick {
        (4, 250, 400.0)
    } else {
        (8, 1500, 500.0)
    };
    let vertices: u32 = if quick { 120 } else { 1200 };
    let preload_edges = if quick { 600 } else { 2400 };

    let state_dir = std::env::temp_dir().join(format!("tkc_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    std::fs::create_dir_all(&state_dir).expect("create state dir");

    // Boot the real release binary with the full observability surface
    // on: SLO objectives, span recording (via --trace-out), and a
    // slow-op threshold high enough to stay quiet under healthy load.
    let mut proc = std::process::Command::new(&bin)
        .args([
            "serve",
            state_dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
            "--no-fsync",
            "--slo",
            "INSERT=50,KAPPA=10,MAXK=10,TRUSS=20",
            "--slow-op-ms",
            "250",
            "--trace-out",
            &trace_out,
            "--trace-cap",
            "8192",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e} (build with cargo build --release first)"));
    let stdout = proc.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut addr: Option<SocketAddr> = None;
    let mut metrics_addr: Option<SocketAddr> = None;
    for line in lines.by_ref() {
        let line = line.expect("server stdout");
        println!("[serve] {line}");
        if let Some(rest) = line.strip_prefix("metrics listening on http://") {
            let hostport = rest.split('/').next().unwrap_or_default();
            metrics_addr = Some(hostport.parse().expect("metrics addr"));
        }
        if let Some(rest) = line.strip_prefix("tkc-engine listening on ") {
            addr = Some(rest.trim().parse().expect("serve addr"));
            break;
        }
    }
    let addr = addr.expect("server never printed its address");
    let metrics_addr = metrics_addr.expect("server never printed its metrics address");
    // Keep the pipe drained so the shutdown prints cannot block the child.
    let drain = std::thread::spawn(move || {
        for line in lines.by_ref().map_while(Result::ok) {
            println!("[serve] {line}");
        }
    });

    // Preload a seeded graph in one BATCH, then force an epoch so reads
    // hit a populated snapshot.
    let mut setup = Client::connect(addr);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batch = format!("BATCH {preload_edges}\n");
    for _ in 0..preload_edges {
        let u = rng.gen_range(0u32..vertices);
        let v = (u + 1 + rng.gen_range(0u32..vertices - 1)) % vertices;
        batch.push_str(&format!("+ {u} {v}\n"));
    }
    setup.stream.write_all(batch.as_bytes()).expect("preload");
    let mut line = String::new();
    setup.reader.read_line(&mut line).expect("preload reply");
    assert_eq!(line.trim_end(), format!("OK queued {preload_edges}"));
    // The reply means the batch is applied, so the epoch below holds it.
    let stats = setup.send_block("STATS");
    assert!(stats.contains(&format!("ops_applied {preload_edges}")));
    assert!(setup.send("EPOCH").starts_with("OK"));

    // Open-loop load phase.
    tkc_obs::info!(
        "bench_serve ({} mode, seed {seed}): {conns} connections x {requests_per_conn} \
         requests at {rate}/s each against {bin}",
        if quick { "quick" } else { "full" }
    );
    let load_start = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|i| {
            std::thread::spawn(move || {
                load_connection(
                    addr,
                    seed ^ (i as u64 + 1),
                    requests_per_conn,
                    rate,
                    vertices,
                )
            })
        })
        .collect();
    let mut samples: Samples = Vec::new();
    for h in handles {
        samples.extend(h.join().expect("load connection panicked"));
    }
    let load_elapsed = load_start.elapsed();

    // Exercise the observability verbs and scrape the server's own view.
    let slo_lines = setup.send_block("SLO");
    assert!(
        slo_lines.iter().any(|l| l.starts_with("INSERT ")),
        "SLO missing INSERT objective: {slo_lines:?}"
    );
    let trace_lines = setup.send_block("TRACE 100");
    assert!(
        trace_lines.iter().any(|l| l.contains("\"kind\":\"span\"")),
        "TRACE returned no span records"
    );
    let (status, metrics) = tkc_obs::http::get(metrics_addr, "/metrics").expect("scrape /metrics");
    assert_eq!(status, 200);

    // Per-verb reduction + client/server cross-check.
    let mut rows = Vec::new();
    for (verb_idx, (verb, _)) in MIX.iter().enumerate() {
        let mut sched: Vec<Duration> = Vec::new();
        let mut rtt: Vec<Duration> = Vec::new();
        for &(vi, s, r) in &samples {
            if vi == verb_idx {
                sched.push(s);
                rtt.push(r);
            }
        }
        assert!(!rtt.is_empty(), "verb {verb} drew no samples");
        sched.sort_unstable();
        rtt.sort_unstable();
        let (srv_count, srv_p50, srv_p90, srv_p99) = server_histogram(&metrics, verb)
            .unwrap_or_else(|| panic!("no server histogram for {verb}"));
        let rtt_p99 = quantile(&rtt, 0.99);
        // The server histogram measures service time in power-of-two
        // buckets; client RTT adds loopback + client scheduling. A wide
        // factor still catches unit errors and dead histograms.
        let tolerance = |a: f64| a * 16.0 + 5e-3;
        assert!(
            rtt_p99.as_secs_f64() <= tolerance(srv_p99)
                && srv_p99 <= tolerance(rtt_p99.as_secs_f64()),
            "{verb}: client rtt p99 {:.3}ms vs server bucket p99 <= {:.3}ms disagree",
            ms(rtt_p99),
            srv_p99 * 1e3,
        );
        tkc_obs::info!(
            "  {verb}: {} reqs, client p50/p90/p99 {:.3}/{:.3}/{:.3} ms \
             (rtt p99 {:.3} ms), server p99 <= {:.3} ms over {} obs",
            rtt.len(),
            ms(quantile(&sched, 0.5)),
            ms(quantile(&sched, 0.9)),
            ms(quantile(&sched, 0.99)),
            ms(rtt_p99),
            srv_p99 * 1e3,
            srv_count,
        );
        rows.push(format!(
            concat!(
                "    {{\"verb\":\"{}\",\"count\":{},",
                "\"client\":{{\"p50_ms\":{:.3},\"p90_ms\":{:.3},\"p99_ms\":{:.3},",
                "\"rtt_p50_ms\":{:.3},\"rtt_p99_ms\":{:.3}}},",
                "\"server\":{{\"count\":{},\"p50_ms_le\":{:.3},\"p90_ms_le\":{:.3},",
                "\"p99_ms_le\":{:.3}}}}}"
            ),
            verb,
            rtt.len(),
            ms(quantile(&sched, 0.5)),
            ms(quantile(&sched, 0.9)),
            ms(quantile(&sched, 0.99)),
            ms(quantile(&rtt, 0.5)),
            ms(rtt_p99),
            srv_count,
            srv_p50 * 1e3,
            srv_p90 * 1e3,
            srv_p99 * 1e3,
        ));
    }

    // Graceful shutdown writes the span trace for `tkc obs report`.
    assert_eq!(setup.send("SHUTDOWN"), "OK shutting down");
    let status = proc.wait().expect("server wait");
    assert!(status.success(), "server exited {status}");
    drain.join().expect("drain thread");
    let trace_bytes = std::fs::metadata(&trace_out).map(|m| m.len()).unwrap_or(0);
    assert!(trace_bytes > 0, "server wrote no trace to {trace_out}");
    let _ = std::fs::remove_dir_all(&state_dir);

    // Replication phase: primary/follower lag + follower-read latency.
    let replication = replication_phase(&bin, quick, seed);

    let mode = if quick { "quick" } else { "full" };
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"version\": 2,\n  \"mode\": \"{mode}\",\n  \
         \"host\": {},\n  \"seed\": {},\n  \"connections\": {},\n  \"requests\": {},\n  \
         \"open_loop_rate_per_conn\": {:.0},\n  \"load_millis\": {:.1},\n  \
         \"results\": [\n{}\n  ],\n{}\n}}\n",
        host_json(mode),
        seed,
        conns,
        samples.len(),
        rate,
        ms(load_elapsed),
        rows.join(",\n"),
        replication,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!(
        "wrote {out_path} ({} requests over {} connections; span trace at {trace_out})",
        samples.len(),
        conns
    );
}
