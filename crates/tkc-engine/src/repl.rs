//! WAL-shipping replication: a primary streams its log to followers
//! that serve read-only epochs and survive node loss (DESIGN.md §13).
//!
//! ## Protocol
//!
//! Length-prefixed binary frames over TCP, one stream per follower:
//! `u32 len | u32 crc | payload`, crc32 (the WAL's own checksum) over
//! the payload. The first payload byte is the frame tag:
//!
//! | tag | frame     | payload after the tag                          |
//! |-----|-----------|------------------------------------------------|
//! | 01  | HELLO     | `last_seq u64, term u64` (follower → primary)  |
//! | 02  | OPS       | `first_seq u64, count u32`, WAL records        |
//! | 03  | STAMP     | `seq u64, kappa_stamp u64, term u64`           |
//! | 04  | SNAPMETA  | `seq u64, term u64, total_bytes u64`           |
//! | 05  | SNAPCHUNK | raw packed-store bytes                         |
//! | 06  | SNAPDONE  | (empty)                                        |
//! | 07  | FENCE     | `new_term u64`                                 |
//! | 08  | HEARTBEAT | `head_seq u64, term u64`                       |
//!
//! A follower handshakes with its last applied sequence number; the
//! primary either catches it up from the in-memory hub buffer (OPS
//! frames embed the WAL's own self-delimiting record encoding) or — if
//! the buffer was trimmed past it, its term disagrees, or it sent the
//! `u64::MAX` force-bootstrap sentinel after a divergence — streams a
//! packed-store snapshot (PR 8 format) before tailing live.
//!
//! ## Divergence probe
//!
//! Every [`ReplOptions::stamp_interval_ops`] applied ops the primary
//! checkpoints [`tkc_verify::kappa_stamp`] into the stream. Stream
//! order guarantees the follower sits at exactly that seq when the
//! STAMP arrives; a mismatch demotes it to `Diverged` (still read-only)
//! and forces a full re-bootstrap on reconnect.
//!
//! ## Fencing
//!
//! `PROMOTE` bumps the follower's term, best-effort sends FENCE
//! upstream, and stops tailing. A primary that hears a higher term
//! (FENCE, or a HELLO from the future) closes every follower stream and
//! drops to read-only — it was superseded and must not accept writes.
//!
//! ## Fault injection
//!
//! Link failpoints (`repl.connect`, `repl.send`, `repl.recv`; kinds
//! eio/short/bitflip/stall) consult the plan in [`ReplOptions`] around
//! every connect and frame, so the replication chaos harness can tear
//! links mid-stream deterministically.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tkc_core::dynamic::DynamicTriangleKCore;
use tkc_faults::{FaultKind, FaultPlan, FaultSite};
use tkc_obs::{Counter, Gauge, MetricsRegistry};

use crate::engine::Engine;
use crate::error::{EngineError, EngineState};
use crate::wal::{crc32, read_record, RecordAt, WalOp};

/// Failpoint site: a follower dialing its primary.
const CONNECT_SITE: &str = "repl.connect";
/// Failpoint site: one frame leaving a node.
const SEND_SITE: &str = "repl.send";
/// Failpoint site: one frame arriving at a node.
const RECV_SITE: &str = "repl.recv";

const TAG_HELLO: u8 = 0x01;
const TAG_OPS: u8 = 0x02;
const TAG_STAMP: u8 = 0x03;
const TAG_SNAPMETA: u8 = 0x04;
const TAG_SNAPCHUNK: u8 = 0x05;
const TAG_SNAPDONE: u8 = 0x06;
const TAG_FENCE: u8 = 0x07;
const TAG_HEARTBEAT: u8 = 0x08;

/// HELLO `last_seq` sentinel: "ignore my history, bootstrap me" — sent
/// after a divergence, where the follower's seq is not to be trusted.
const BOOTSTRAP_SENTINEL: u64 = u64::MAX;

/// Hard cap on a single frame (snapshots are chunked well below this).
const MAX_FRAME: usize = 4 << 20;
/// Snapshot chunk size.
const SNAP_CHUNK: usize = 256 << 10;
/// Hard cap on an assembled bootstrap snapshot.
const MAX_SNAPSHOT: u64 = 1 << 32;
/// Max ops batched into one OPS frame.
const OPS_BATCH: usize = 512;
/// Idle interval between heartbeats on a caught-up stream.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);
/// A follower that hears nothing for this long tears down and redials.
const SILENCE_LIMIT: Duration = Duration::from_secs(10);

/// This node's replication role. Orthogonal to [`EngineState`]: a
/// follower is *read-only by role*, not by failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// No replication configured (the default single-node shape).
    Standalone,
    /// Accepts writes and streams its WAL to followers.
    Primary,
    /// Tails a primary; writes answer `ERR READONLY <primary-addr>`.
    Follower,
}

impl Role {
    /// The metrics/wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Standalone => "standalone",
            Role::Primary => "primary",
            Role::Follower => "follower",
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Role::Standalone => 0,
            Role::Primary => 1,
            Role::Follower => 2,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Role {
        match v {
            1 => Role::Primary,
            2 => Role::Follower,
            _ => Role::Standalone,
        }
    }
}

/// Tunables for [`start`].
#[derive(Debug, Clone, Default)]
pub struct ReplOptions {
    /// Bind address for the replication listener (`Some` = this node
    /// serves followers; `127.0.0.1:0` picks an ephemeral port).
    pub repl_addr: Option<String>,
    /// Primary address to tail (`Some` = this node is a follower).
    pub follow: Option<String>,
    /// Applied ops between κ-stamp divergence checkpoints (0 = 256).
    pub stamp_interval_ops: u64,
    /// In-memory hub ring capacity in entries (0 = 65536); followers
    /// trimmed past it re-bootstrap from the packed store.
    pub hub_buffer: usize,
    /// Link failpoint plan (`repl.connect` / `repl.send` / `repl.recv`).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

/// Counters behind both the `STATS` keys and the `tkc_repl_*` gauges.
#[derive(Debug, Default)]
struct ReplShared {
    reconnects: AtomicU64,
    ops_shipped: AtomicU64,
    ops_applied: AtomicU64,
    lag_seq: AtomicU64,
    head_seq: AtomicU64,
    caught_up_nanos: AtomicU64,
    followers: AtomicU64,
    bootstraps: AtomicU64,
    divergences: AtomicU64,
}

impl ReplShared {
    /// Seconds since the follower last had zero seq lag (0 while caught
    /// up).
    fn lag_seconds(&self) -> u64 {
        if self.lag_seq.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let since =
            tkc_obs::process_nanos().saturating_sub(self.caught_up_nanos.load(Ordering::Relaxed));
        since / 1_000_000_000
    }
}

/// Prometheus families for the replication subsystem (engine registry).
#[derive(Debug, Clone)]
struct ReplMetrics {
    reconnects: Counter,
    ops_shipped: Counter,
    ops_applied: Counter,
    lag_seq: Gauge,
    lag_seconds: Gauge,
    followers: Gauge,
    bootstraps: Counter,
    divergences: Counter,
}

impl ReplMetrics {
    fn register(reg: &MetricsRegistry) -> ReplMetrics {
        ReplMetrics {
            reconnects: reg.counter(
                "tkc_repl_reconnects_total",
                "Follower reconnect attempts to the primary",
            ),
            ops_shipped: reg.counter(
                "tkc_repl_ops_shipped_total",
                "Ops shipped to followers over replication streams",
            ),
            ops_applied: reg.counter(
                "tkc_repl_ops_applied_total",
                "Replicated ops applied by this follower",
            ),
            lag_seq: reg.gauge(
                "tkc_repl_lag_seq",
                "Follower sequence lag behind the primary head",
            ),
            lag_seconds: reg.gauge(
                "tkc_repl_lag_seconds",
                "Seconds since this follower was last fully caught up",
            ),
            followers: reg.gauge(
                "tkc_repl_followers",
                "Live follower streams served by this primary",
            ),
            bootstraps: reg.counter(
                "tkc_repl_bootstraps_total",
                "Full snapshot bootstraps completed by this follower",
            ),
            divergences: reg.counter(
                "tkc_repl_divergences_total",
                "Kappa-stamp divergences caught by the probe",
            ),
        }
    }
}

/// One entry in the hub ring: a WAL op at its sequence number, or a
/// κ-stamp checkpoint anchored at the seq of the op just before it.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Op(WalOp),
    Stamp { stamp: u64, term: u64 },
}

#[derive(Debug)]
struct HubState {
    entries: VecDeque<(u64, Entry)>,
    /// Lowest op seq still in `entries` (head + 1 when empty).
    base: u64,
    /// Highest op seq pushed so far.
    head: u64,
    closed: bool,
}

/// What [`ReplHub::collect_from`] hands a sender thread.
enum Collected {
    Items(Vec<(u64, Entry)>),
    /// `next` was trimmed out of the ring: bootstrap the follower.
    Behind,
    /// Caught up; nothing new inside the wait window.
    Empty,
    Closed,
}

/// The primary's fan-out buffer: ops (and stamp checkpoints) pushed
/// under the engine writer lock, consumed by one sender thread per
/// follower stream.
#[derive(Debug)]
struct ReplHub {
    state: Mutex<HubState>,
    cv: Condvar,
    cap: usize,
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn_id: AtomicU64,
}

impl ReplHub {
    fn new(base_seq: u64, cap: usize) -> ReplHub {
        ReplHub {
            state: Mutex::new(HubState {
                entries: VecDeque::new(),
                base: base_seq + 1,
                head: base_seq,
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(64),
            conns: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(1),
        }
    }

    fn push_ops(&self, ops: &[WalOp], end_seq: u64) {
        let mut s = lock_hub(&self.state);
        let mut seq = end_seq.saturating_sub(ops.len() as u64);
        for &op in ops {
            seq += 1;
            s.entries.push_back((seq, Entry::Op(op)));
        }
        s.head = end_seq;
        while s.entries.len() > self.cap {
            if let Some((seq, entry)) = s.entries.pop_front() {
                if matches!(entry, Entry::Op(_)) {
                    s.base = seq + 1;
                }
            }
        }
        drop(s);
        self.cv.notify_all();
    }

    fn push_stamp(&self, seq: u64, stamp: u64, term: u64) {
        let mut s = lock_hub(&self.state);
        s.entries.push_back((seq, Entry::Stamp { stamp, term }));
        drop(s);
        self.cv.notify_all();
    }

    fn head(&self) -> u64 {
        lock_hub(&self.state).head
    }

    fn collect_from(&self, next: u64, max: usize, wait: Duration) -> Collected {
        let deadline = Instant::now() + wait;
        let mut s = lock_hub(&self.state);
        loop {
            if s.closed {
                return Collected::Closed;
            }
            if next < s.base {
                return Collected::Behind;
            }
            let items: Vec<(u64, Entry)> = s
                .entries
                .iter()
                .filter(|(seq, _)| *seq >= next)
                .take(max)
                .copied()
                .collect();
            if !items.is_empty() {
                return Collected::Items(items);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Collected::Empty;
            }
            let (guard, _timeout) = self
                .cv
                .wait_timeout(s, left)
                .unwrap_or_else(|p| p.into_inner());
            s = guard;
        }
    }

    fn register(&self, stream: TcpStream) -> u64 {
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        lock_conns(&self.conns).push((id, stream));
        id
    }

    fn unregister(&self, id: u64) {
        lock_conns(&self.conns).retain(|(cid, _)| *cid != id);
    }

    fn conn_count(&self) -> usize {
        lock_conns(&self.conns).len()
    }

    fn close_all(&self) {
        {
            let mut s = lock_hub(&self.state);
            s.closed = true;
        }
        self.cv.notify_all();
        for (_, stream) in lock_conns(&self.conns).drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn closed(&self) -> bool {
        lock_hub(&self.state).closed
    }
}

/// Follower-side control block: the supervised tail loop's shared
/// state, plus the upstream stream handle `PROMOTE` fences through.
#[derive(Debug)]
struct FollowerCtl {
    upstream_addr: String,
    stream: Mutex<Option<TcpStream>>,
    stop: AtomicBool,
    force_bootstrap: AtomicBool,
}

impl FollowerCtl {
    /// Records stream progress: advances the known head, recomputes seq
    /// lag, and mirrors both into the gauges.
    fn note_position(
        &self,
        shared: &ReplShared,
        metrics: &ReplMetrics,
        applied: u64,
        head: Option<u64>,
    ) {
        let cur = shared.head_seq.load(Ordering::Relaxed);
        let new_head = head.unwrap_or(applied).max(applied).max(cur);
        shared.head_seq.store(new_head, Ordering::Relaxed);
        let lag = new_head.saturating_sub(applied);
        shared.lag_seq.store(lag, Ordering::Relaxed);
        if lag == 0 {
            shared
                .caught_up_nanos
                .store(tkc_obs::process_nanos(), Ordering::Relaxed);
        }
        metrics.lag_seq.set(lag as f64);
        metrics.lag_seconds.set(shared.lag_seconds() as f64);
    }
}

/// The engine's handle into the replication subsystem: the hub to ship
/// applied ops into (primary), the follower control block, and the
/// shared counters behind `STATS`/`HEALTH`.
#[derive(Debug)]
pub(crate) struct ReplHandle {
    hub: Option<Arc<ReplHub>>,
    follower: Option<Arc<FollowerCtl>>,
    shared: Arc<ReplShared>,
    stamp_interval: u64,
    ops_since_stamp: AtomicU64,
}

impl ReplHandle {
    /// Called under the engine writer lock after every applied batch:
    /// ships the ops into the hub ring and, every `stamp_interval`
    /// ops, checkpoints the κ-stamp into the stream.
    pub(crate) fn on_apply(&self, ops: &[WalOp], seq: u64, core: &DynamicTriangleKCore, term: u64) {
        let Some(hub) = &self.hub else { return };
        hub.push_ops(ops, seq);
        let since = self
            .ops_since_stamp
            .fetch_add(ops.len() as u64, Ordering::Relaxed)
            + ops.len() as u64;
        if since >= self.stamp_interval {
            self.ops_since_stamp.store(0, Ordering::Relaxed);
            let stamp = tkc_verify::kappa_stamp(core.graph(), core.kappa_slice());
            hub.push_stamp(seq, stamp, term);
        }
    }

    /// The primary this node follows, if it is a follower.
    pub(crate) fn primary_addr(&self) -> Option<String> {
        self.follower.as_ref().map(|f| f.upstream_addr.clone())
    }

    /// Closes every follower stream (fencing a superseded primary).
    pub(crate) fn close_followers(&self) {
        if let Some(hub) = &self.hub {
            hub.close_all();
        }
    }

    /// Follower → writable transition: stops tailing, best-effort sends
    /// FENCE upstream. Returns true when this node also runs a hub (it
    /// becomes Primary rather than Standalone).
    pub(crate) fn promote(&self, new_term: u64) -> bool {
        if let Some(f) = &self.follower {
            f.stop.store(true, Ordering::Relaxed);
            if let Some(mut stream) = lock_upstream(&f.stream).take() {
                let mut payload = vec![TAG_FENCE];
                payload.extend_from_slice(&new_term.to_le_bytes());
                let _ = write_frame(&mut stream, &payload, None);
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        self.hub.is_some()
    }

    /// (seq lag, seconds lag) of this follower.
    pub(crate) fn lag(&self) -> (u64, u64) {
        (
            self.shared.lag_seq.load(Ordering::Relaxed),
            self.shared.lag_seconds(),
        )
    }

    /// The `STATS` key/value lines the engine appends when replication
    /// is attached.
    pub(crate) fn stats_keys(&self) -> Vec<(&'static str, u64)> {
        let s = &self.shared;
        vec![
            ("repl_reconnects", s.reconnects.load(Ordering::Relaxed)),
            ("repl_ops_shipped", s.ops_shipped.load(Ordering::Relaxed)),
            ("repl_ops_applied", s.ops_applied.load(Ordering::Relaxed)),
            ("repl_lag_seq", s.lag_seq.load(Ordering::Relaxed)),
            ("repl_lag_seconds", s.lag_seconds()),
            ("repl_followers", s.followers.load(Ordering::Relaxed)),
            ("repl_bootstraps", s.bootstraps.load(Ordering::Relaxed)),
            ("repl_divergences", s.divergences.load(Ordering::Relaxed)),
        ]
    }
}

/// A running replication subsystem; [`ReplServer::shutdown`] stops the
/// accept loop, the follower tail loop, and every follower stream.
#[derive(Debug)]
pub struct ReplServer {
    repl_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    hub: Option<Arc<ReplHub>>,
    ctl: Option<Arc<FollowerCtl>>,
    threads: Vec<JoinHandle<()>>,
}

impl ReplServer {
    /// The bound replication listener address (resolves `:0`).
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl_addr
    }

    /// Stops every replication thread and closes every stream.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(ctl) = &self.ctl {
            ctl.stop.store(true, Ordering::Relaxed);
            if let Some(stream) = lock_upstream(&ctl.stream).take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if let Some(hub) = &self.hub {
            hub.close_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Attaches the replication subsystem to `engine` per `opts`: binds the
/// replication listener (primary), spawns the supervised tail loop
/// (follower), registers the `tkc_repl_*` families, and installs the
/// [`ReplHandle`] the engine ships applied ops through.
pub fn start(engine: &Arc<Engine>, opts: ReplOptions) -> Result<ReplServer, EngineError> {
    let metrics = ReplMetrics::register(engine.registry());
    let shared = Arc::new(ReplShared::default());
    let stop = Arc::new(AtomicBool::new(false));
    let stamp_interval = if opts.stamp_interval_ops == 0 {
        256
    } else {
        opts.stamp_interval_ops
    };
    let hub_cap = if opts.hub_buffer == 0 {
        65536
    } else {
        opts.hub_buffer
    };

    let mut hub = None;
    let mut ctl = None;
    let mut repl_addr = None;
    let mut listener_slot = None;
    if let Some(addr) = &opts.repl_addr {
        let listener = TcpListener::bind(addr)?;
        repl_addr = Some(listener.local_addr()?);
        listener.set_nonblocking(true)?;
        let h = Arc::new(ReplHub::new(engine.applied_seq(), hub_cap));
        hub = Some(Arc::clone(&h));
        listener_slot = Some((listener, h));
    }
    if let Some(up) = &opts.follow {
        ctl = Some(Arc::new(FollowerCtl {
            upstream_addr: up.clone(),
            stream: Mutex::new(None),
            stop: AtomicBool::new(false),
            force_bootstrap: AtomicBool::new(false),
        }));
    }

    engine.set_repl(ReplHandle {
        hub: hub.clone(),
        follower: ctl.clone(),
        shared: Arc::clone(&shared),
        stamp_interval,
        ops_since_stamp: AtomicU64::new(0),
    });
    if ctl.is_some() {
        engine.set_role(Role::Follower);
        engine.set_state(EngineState::Follower);
    } else if hub.is_some() {
        engine.set_role(Role::Primary);
    }

    let mut threads = Vec::new();
    if let Some((listener, h)) = listener_slot {
        let accept_engine = Arc::clone(engine);
        let accept_stop = Arc::clone(&stop);
        let accept_metrics = metrics.clone();
        let accept_shared = Arc::clone(&shared);
        let plan = opts.fault_plan.clone();
        threads.push(std::thread::spawn(move || {
            accept_loop(
                listener,
                accept_engine,
                h,
                accept_shared,
                accept_metrics,
                plan,
                accept_stop,
            );
        }));
    }
    if let Some(c) = &ctl {
        let tail_engine = Arc::clone(engine);
        let tail_ctl = Arc::clone(c);
        let tail_metrics = metrics.clone();
        let tail_shared = Arc::clone(&shared);
        let plan = opts.fault_plan.clone();
        threads.push(std::thread::spawn(move || {
            tail_loop(tail_engine, tail_ctl, tail_shared, tail_metrics, plan);
        }));
    }

    Ok(ReplServer {
        repl_addr,
        stop,
        hub,
        ctl,
        threads,
    })
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Writes one frame, consulting the `repl.send` failpoint: eio fails
/// outright, short truncates the frame on the wire, bitflip corrupts a
/// payload byte (the peer's crc check catches it), stall sleeps then
/// fails.
fn write_frame(
    stream: &mut TcpStream,
    payload: &[u8],
    plan: Option<&Arc<FaultPlan>>,
) -> io::Result<()> {
    if let Some(kind) = plan.and_then(|p| p.inject(FaultSite::ReplSend)) {
        match kind {
            FaultKind::ShortWrite => {
                let mut buf = frame_bytes(payload);
                let cut = buf.len().saturating_sub(1).max(4);
                buf.truncate(cut);
                let _ = stream.write_all(&buf);
                return Err(io::Error::other(format!(
                    "injected short write at {SEND_SITE}"
                )));
            }
            FaultKind::BitFlip => {
                let mut buf = frame_bytes(payload);
                let mid = 8 + payload.len() / 2;
                if let Some(b) = buf.get_mut(mid) {
                    *b ^= 0x10;
                }
                return stream.write_all(&buf);
            }
            FaultKind::Stall => {
                std::thread::sleep(Duration::from_millis(100));
                return Err(io::Error::other(format!("injected stall at {SEND_SITE}")));
            }
            _ => {
                return Err(io::Error::other(format!(
                    "injected {} at {SEND_SITE}",
                    kind.as_str()
                )))
            }
        }
    }
    stream.write_all(&frame_bytes(payload))
}

/// Reads one frame, verifying length bounds and the payload crc; the
/// `repl.recv` failpoint tears the link (stall sleeps first).
fn read_frame(stream: &mut TcpStream, plan: Option<&Arc<FaultPlan>>) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 8];
    stream.read_exact(&mut header)?;
    if let Some(kind) = plan.and_then(|p| p.inject(FaultSite::ReplRecv)) {
        if kind == FaultKind::Stall {
            std::thread::sleep(Duration::from_millis(100));
        }
        return Err(io::Error::other(format!(
            "injected {} at {RECV_SITE}",
            kind.as_str()
        )));
    }
    let (len_b, crc_b) = header.split_at(4);
    let len = u32::from_le_bytes(len_b.try_into().unwrap_or([0; 4])) as usize;
    let crc = u32::from_le_bytes(crc_b.try_into().unwrap_or([0; 4]));
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::other(format!("frame length {len} out of range")));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(io::Error::other("frame crc mismatch"));
    }
    Ok(payload)
}

fn u64_at(p: &[u8], off: usize) -> io::Result<u64> {
    p.get(off..off + 8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| io::Error::other("frame truncated"))
}

fn u32_at(p: &[u8], off: usize) -> io::Result<u32> {
    p.get(off..off + 4)
        .and_then(|b| <[u8; 4]>::try_from(b).ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| io::Error::other("frame truncated"))
}

fn hello_payload(last_seq: u64, term: u64) -> Vec<u8> {
    let mut p = vec![TAG_HELLO];
    p.extend_from_slice(&last_seq.to_le_bytes());
    p.extend_from_slice(&term.to_le_bytes());
    p
}

fn ops_payload(first_seq: u64, ops: &[WalOp]) -> Vec<u8> {
    let mut p = Vec::with_capacity(13 + ops.len() * 17);
    p.push(TAG_OPS);
    p.extend_from_slice(&first_seq.to_le_bytes());
    p.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for &op in ops {
        op.encode(&mut p);
    }
    p
}

/// Decodes an OPS payload back into `(first_seq, ops)` using the WAL's
/// own record reader — wire and log share one codec.
fn decode_ops(p: &[u8]) -> io::Result<(u64, Vec<WalOp>)> {
    let first_seq = u64_at(p, 1)?;
    let count = u32_at(p, 9)? as usize;
    if count > MAX_FRAME / 9 {
        return Err(io::Error::other("ops frame count out of range"));
    }
    let mut ops = Vec::with_capacity(count);
    let mut off = 13;
    while ops.len() < count {
        match read_record(p, off) {
            Ok(RecordAt::Op(op, next)) => {
                ops.push(op);
                off = next;
            }
            Ok(RecordAt::End | RecordAt::Torn) => {
                return Err(io::Error::other("ops frame truncated"));
            }
            Err(e) => return Err(io::Error::other(format!("ops frame corrupt: {e}"))),
        }
    }
    Ok((first_seq, ops))
}

fn three_u64_payload(tag: u8, a: u64, b: u64, c: u64) -> Vec<u8> {
    let mut p = vec![tag];
    p.extend_from_slice(&a.to_le_bytes());
    p.extend_from_slice(&b.to_le_bytes());
    p.extend_from_slice(&c.to_le_bytes());
    p
}

fn heartbeat_payload(head_seq: u64, term: u64) -> Vec<u8> {
    let mut p = vec![TAG_HEARTBEAT];
    p.extend_from_slice(&head_seq.to_le_bytes());
    p.extend_from_slice(&term.to_le_bytes());
    p
}

// ---------------------------------------------------------------------
// Primary side
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    engine: Arc<Engine>,
    hub: Arc<ReplHub>,
    shared: Arc<ReplShared>,
    metrics: ReplMetrics,
    plan: Option<Arc<FaultPlan>>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Relaxed) && !hub.closed() {
        match listener.accept() {
            Ok((stream, peer)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let engine = Arc::clone(&engine);
                let hub = Arc::clone(&hub);
                let shared = Arc::clone(&shared);
                let metrics = metrics.clone();
                let plan = plan.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if let Err(e) =
                        serve_follower(engine, hub, &shared, &metrics, plan, stream, &stop)
                    {
                        tkc_obs::warn!("replication stream to {peer} ended: {e}");
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Serves one follower stream: HELLO handshake (with term fencing),
/// snapshot bootstrap when the follower is behind the hub ring, then a
/// live tail of OPS/STAMP/HEARTBEAT frames. A small reader thread
/// watches the stream for inbound FENCE frames.
fn serve_follower(
    engine: Arc<Engine>,
    hub: Arc<ReplHub>,
    shared: &ReplShared,
    metrics: &ReplMetrics,
    plan: Option<Arc<FaultPlan>>,
    mut stream: TcpStream,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let hello = read_frame(&mut stream, plan.as_ref())?;
    if hello.first() != Some(&TAG_HELLO) {
        return Err(io::Error::other("expected HELLO"));
    }
    let last_seq = u64_at(&hello, 1)?;
    let their_term = u64_at(&hello, 9)?;
    if their_term > engine.term() {
        // A promoted follower is telling us we were superseded.
        engine.fence(their_term);
        return Err(io::Error::other(format!(
            "fenced by follower hello at term {their_term}"
        )));
    }
    stream.set_read_timeout(None)?;
    let conn_id = hub.register(stream.try_clone()?);
    shared
        .followers
        .store(hub.conn_count() as u64, Ordering::Relaxed);
    metrics.followers.set(hub.conn_count() as f64);
    {
        // FENCE watcher: blocks on the stream until it errors (stream
        // shut down at unregister) or a FENCE frame arrives.
        let mut rd = stream.try_clone()?;
        let fence_engine = Arc::clone(&engine);
        std::thread::spawn(move || loop {
            match read_frame(&mut rd, None) {
                Ok(p) if p.first() == Some(&TAG_FENCE) => {
                    if let Ok(term) = u64_at(&p, 1) {
                        fence_engine.fence(term);
                    }
                    let _ = rd.shutdown(Shutdown::Both);
                    return;
                }
                Ok(_) => {}
                Err(_) => return,
            }
        });
    }
    let result = stream_entries(
        &engine,
        &hub,
        shared,
        metrics,
        plan.as_ref(),
        &mut stream,
        stop,
        last_seq,
        their_term,
    );
    hub.unregister(conn_id);
    shared
        .followers
        .store(hub.conn_count() as u64, Ordering::Relaxed);
    metrics.followers.set(hub.conn_count() as f64);
    let _ = stream.shutdown(Shutdown::Both);
    result
}

#[allow(clippy::too_many_arguments)]
fn stream_entries(
    engine: &Arc<Engine>,
    hub: &Arc<ReplHub>,
    shared: &ReplShared,
    metrics: &ReplMetrics,
    plan: Option<&Arc<FaultPlan>>,
    stream: &mut TcpStream,
    stop: &AtomicBool,
    last_seq: u64,
    their_term: u64,
) -> io::Result<()> {
    // A sentinel HELLO, a term mismatch (diverged history), or a seq
    // from our future all mean the follower's log cannot be trusted to
    // align with ours: stream a snapshot instead of catching up.
    let mut force =
        last_seq == BOOTSTRAP_SENTINEL || their_term != engine.term() || last_seq > hub.head();
    let mut next = if force { 0 } else { last_seq + 1 };
    loop {
        if stop.load(Ordering::Relaxed) || hub.closed() {
            return Ok(());
        }
        if force {
            let (bytes, seq, term) = engine
                .snapshot_for_replication()
                .map_err(|e| io::Error::other(format!("snapshot capture: {e}")))?;
            write_frame(
                stream,
                &three_u64_payload(TAG_SNAPMETA, seq, term, bytes.len() as u64),
                plan,
            )?;
            for chunk in bytes.chunks(SNAP_CHUNK) {
                let mut p = Vec::with_capacity(1 + chunk.len());
                p.push(TAG_SNAPCHUNK);
                p.extend_from_slice(chunk);
                write_frame(stream, &p, plan)?;
            }
            write_frame(stream, &[TAG_SNAPDONE], plan)?;
            next = seq + 1;
            force = false;
            continue;
        }
        match hub.collect_from(next, OPS_BATCH, HEARTBEAT_EVERY) {
            Collected::Closed => return Ok(()),
            Collected::Behind => {
                force = true;
            }
            Collected::Empty => {
                write_frame(stream, &heartbeat_payload(hub.head(), engine.term()), plan)?;
            }
            Collected::Items(items) => {
                let mut ops: Vec<WalOp> = Vec::new();
                let mut first = next;
                for (seq, entry) in items {
                    match entry {
                        Entry::Op(op) => {
                            if ops.is_empty() {
                                first = seq;
                            }
                            ops.push(op);
                            next = seq + 1;
                        }
                        Entry::Stamp { stamp, term } => {
                            if !ops.is_empty() {
                                write_frame(stream, &ops_payload(first, &ops), plan)?;
                                shared
                                    .ops_shipped
                                    .fetch_add(ops.len() as u64, Ordering::Relaxed);
                                metrics.ops_shipped.add(ops.len() as u64);
                                ops.clear();
                            }
                            write_frame(
                                stream,
                                &three_u64_payload(TAG_STAMP, seq, stamp, term),
                                plan,
                            )?;
                        }
                    }
                }
                if !ops.is_empty() {
                    write_frame(stream, &ops_payload(first, &ops), plan)?;
                    shared
                        .ops_shipped
                        .fetch_add(ops.len() as u64, Ordering::Relaxed);
                    metrics.ops_shipped.add(ops.len() as u64);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Follower side
// ---------------------------------------------------------------------

/// The supervised follower loop: dial, handshake, tail; on any link
/// error reconnect with capped exponential backoff + deterministic
/// jitter (the PR 5 recovery-supervisor pattern).
fn tail_loop(
    engine: Arc<Engine>,
    ctl: Arc<FollowerCtl>,
    shared: Arc<ReplShared>,
    metrics: ReplMetrics,
    plan: Option<Arc<FaultPlan>>,
) {
    let mut rng = tkc_obs::process_nanos() | 1;
    let mut attempt: u32 = 0;
    while !ctl.stop.load(Ordering::Relaxed) {
        match tail_once(
            &engine,
            &ctl,
            &shared,
            &metrics,
            plan.as_ref(),
            &mut attempt,
        ) {
            Ok(()) => break,
            Err(e) => {
                if ctl.stop.load(Ordering::Relaxed) {
                    break;
                }
                tkc_obs::warn!(
                    "replication link to {}: {e}; reconnecting",
                    ctl.upstream_addr
                );
                shared.reconnects.fetch_add(1, Ordering::Relaxed);
                metrics.reconnects.inc();
                attempt = attempt.saturating_add(1);
                let base = Duration::from_millis(50);
                let exp = base.saturating_mul(1u32 << attempt.min(6));
                let capped = exp.min(Duration::from_secs(2));
                // Up to +25% jitter so a restarted cluster's followers
                // don't redial in phase.
                // analyze: allow(panic-surface): divisor is `x / 4 + 1`, structurally nonzero
                let jitter = tkc_faults::xorshift(&mut rng) % (capped.as_nanos() as u64 / 4 + 1);
                nap(&ctl.stop, capped + Duration::from_nanos(jitter));
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

/// Buffer for an in-flight snapshot bootstrap.
struct SnapBuffer {
    seq: u64,
    term: u64,
    total: u64,
    bytes: Vec<u8>,
}

/// One connection lifetime: returns `Ok` only on a clean stop
/// (shutdown or promotion); any error means "reconnect".
fn tail_once(
    engine: &Arc<Engine>,
    ctl: &FollowerCtl,
    shared: &ReplShared,
    metrics: &ReplMetrics,
    plan: Option<&Arc<FaultPlan>>,
    attempt: &mut u32,
) -> io::Result<()> {
    if let Some(kind) = plan.and_then(|p| p.inject(FaultSite::ReplConnect)) {
        if kind == FaultKind::Stall {
            std::thread::sleep(Duration::from_millis(100));
        }
        return Err(io::Error::other(format!(
            "injected {} at {CONNECT_SITE}",
            kind.as_str()
        )));
    }
    let mut stream = TcpStream::connect(&ctl.upstream_addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    *lock_upstream(&ctl.stream) = stream.try_clone().ok();
    let last = if ctl.force_bootstrap.load(Ordering::Relaxed) {
        BOOTSTRAP_SENTINEL
    } else {
        engine.applied_seq()
    };
    write_frame(&mut stream, &hello_payload(last, engine.term()), plan)?;
    let mut snap: Option<SnapBuffer> = None;
    let mut last_heard = Instant::now();
    loop {
        if ctl.stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let payload = match read_frame(&mut stream, plan) {
            Ok(p) => p,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if last_heard.elapsed() > SILENCE_LIMIT {
                    return Err(io::Error::other(format!(
                        "upstream silent for {SILENCE_LIMIT:?}"
                    )));
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        *attempt = 0;
        last_heard = Instant::now();
        match payload.first().copied() {
            Some(TAG_OPS) => {
                let (first_seq, ops) = decode_ops(&payload)?;
                let applied = engine.applied_seq();
                if first_seq != applied + 1 {
                    return Err(io::Error::other(format!(
                        "seq gap: expected {}, got {first_seq}",
                        applied + 1
                    )));
                }
                engine
                    .apply_replicated(&ops)
                    .map_err(|e| io::Error::other(format!("replicated apply: {e}")))?;
                shared
                    .ops_applied
                    .fetch_add(ops.len() as u64, Ordering::Relaxed);
                metrics.ops_applied.add(ops.len() as u64);
                ctl.note_position(shared, metrics, engine.applied_seq(), None);
            }
            Some(TAG_STAMP) => {
                let seq = u64_at(&payload, 1)?;
                let stamp = u64_at(&payload, 9)?;
                let term = u64_at(&payload, 17)?;
                if term > engine.term() {
                    engine.set_term(term);
                }
                // Stream order puts us at exactly `seq` when the stamp
                // arrives; anything else is a skipped checkpoint from a
                // catch-up, not a divergence.
                if seq == engine.applied_seq() {
                    let local = engine.kappa_stamp_now();
                    if local != stamp {
                        engine.set_state(EngineState::Diverged);
                        ctl.force_bootstrap.store(true, Ordering::Relaxed);
                        shared.divergences.fetch_add(1, Ordering::Relaxed);
                        metrics.divergences.inc();
                        return Err(io::Error::other(format!(
                            "kappa divergence at seq {seq}: local {local:#018x} != primary {stamp:#018x}"
                        )));
                    }
                }
            }
            Some(TAG_SNAPMETA) => {
                let seq = u64_at(&payload, 1)?;
                let term = u64_at(&payload, 9)?;
                let total = u64_at(&payload, 17)?;
                if total > MAX_SNAPSHOT {
                    return Err(io::Error::other(format!("snapshot of {total} bytes")));
                }
                snap = Some(SnapBuffer {
                    seq,
                    term,
                    total,
                    bytes: Vec::with_capacity((total as usize).min(1 << 20)),
                });
            }
            Some(TAG_SNAPCHUNK) => {
                let Some(s) = snap.as_mut() else {
                    return Err(io::Error::other("SNAPCHUNK outside a snapshot"));
                };
                s.bytes.extend_from_slice(payload.get(1..).unwrap_or(&[]));
                if s.bytes.len() as u64 > s.total {
                    return Err(io::Error::other("snapshot overflowed SNAPMETA size"));
                }
            }
            Some(TAG_SNAPDONE) => {
                let Some(s) = snap.take() else {
                    return Err(io::Error::other("SNAPDONE outside a snapshot"));
                };
                if s.bytes.len() as u64 != s.total {
                    return Err(io::Error::other(format!(
                        "snapshot cut short: {} of {} bytes",
                        s.bytes.len(),
                        s.total
                    )));
                }
                engine
                    .install_snapshot(&s.bytes, s.seq, s.term)
                    .map_err(|e| io::Error::other(format!("snapshot install: {e}")))?;
                ctl.force_bootstrap.store(false, Ordering::Relaxed);
                engine.set_state(EngineState::Follower);
                shared.bootstraps.fetch_add(1, Ordering::Relaxed);
                metrics.bootstraps.inc();
                ctl.note_position(shared, metrics, s.seq, Some(s.seq));
            }
            Some(TAG_HEARTBEAT) => {
                let head = u64_at(&payload, 1)?;
                let term = u64_at(&payload, 9)?;
                if term > engine.term() {
                    engine.set_term(term);
                }
                ctl.note_position(shared, metrics, engine.applied_seq(), Some(head));
            }
            Some(TAG_FENCE) => {
                let term = u64_at(&payload, 1)?;
                if term > engine.term() {
                    engine.set_term(term);
                }
            }
            _ => return Err(io::Error::other("unknown frame tag")),
        }
    }
}

// ---------------------------------------------------------------------
// Support
// ---------------------------------------------------------------------

fn lock_hub<'a>(m: &'a Mutex<HubState>) -> std::sync::MutexGuard<'a, HubState> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn lock_conns<'a>(
    m: &'a Mutex<Vec<(u64, TcpStream)>>,
) -> std::sync::MutexGuard<'a, Vec<(u64, TcpStream)>> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn lock_upstream<'a>(
    m: &'a Mutex<Option<TcpStream>>,
) -> std::sync::MutexGuard<'a, Option<TcpStream>> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;

    #[test]
    fn role_round_trips_through_u8() {
        for r in [Role::Standalone, Role::Primary, Role::Follower] {
            assert_eq!(Role::from_u8(r.as_u8()), r);
        }
    }

    #[test]
    fn ops_payload_round_trips_through_the_wal_codec() {
        let ops = [
            WalOp::Insert(1, 2),
            WalOp::Remove(3, 4),
            WalOp::AddVertices(9),
        ];
        let p = ops_payload(42, &ops);
        assert_eq!(p.first(), Some(&TAG_OPS));
        let (first, decoded) = decode_ops(&p).unwrap();
        assert_eq!(first, 42);
        assert_eq!(decoded, ops);
    }

    #[test]
    fn corrupt_ops_payload_is_rejected_not_panicked() {
        let p = ops_payload(7, &[WalOp::Insert(0, 1)]);
        let mut flipped = p.clone();
        *flipped.last_mut().unwrap() ^= 0xFF;
        assert!(decode_ops(&flipped).is_err());
        let truncated = &p[..p.len() - 3];
        assert!(decode_ops(truncated).is_err());
    }

    #[test]
    fn hub_catch_up_trim_and_behind() {
        let hub = ReplHub::new(0, 64);
        let ops: Vec<WalOp> = (0..4u32).map(|i| WalOp::Insert(i, i + 1)).collect();
        hub.push_ops(&ops, 4);
        hub.push_stamp(4, 0xABCD, 0);
        match hub.collect_from(1, 100, Duration::from_millis(10)) {
            Collected::Items(items) => {
                assert_eq!(items.len(), 5);
                assert!(matches!(items[0], (1, Entry::Op(WalOp::Insert(0, 1)))));
                assert!(matches!(items[4], (4, Entry::Stamp { stamp: 0xABCD, .. })));
            }
            _ => panic!("expected items"),
        }
        // From the middle: only seq >= 3 (the stale stamp is skipped).
        match hub.collect_from(3, 100, Duration::from_millis(10)) {
            Collected::Items(items) => assert_eq!(items.len(), 3),
            _ => panic!("expected items"),
        }
        // Caught up: nothing within the window.
        assert!(matches!(
            hub.collect_from(5, 100, Duration::from_millis(10)),
            Collected::Empty
        ));
        // Overflow the ring: early seqs are trimmed, stragglers must
        // bootstrap.
        let many: Vec<WalOp> = (0..100u32).map(|i| WalOp::Insert(i, i + 1)).collect();
        hub.push_ops(&many, 104);
        assert!(matches!(
            hub.collect_from(1, 100, Duration::from_millis(10)),
            Collected::Behind
        ));
        hub.close_all();
        assert!(matches!(
            hub.collect_from(50, 100, Duration::from_millis(10)),
            Collected::Closed
        ));
    }

    #[test]
    fn frame_codec_detects_corruption() {
        let payload = hello_payload(9, 2);
        let bytes = frame_bytes(&payload);
        assert_eq!(bytes.len(), payload.len() + 8);
        // A clean frame parses back (via a loopback socket pair).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        write_frame(&mut tx, &payload, None).unwrap();
        let got = read_frame(&mut rx, None).unwrap();
        assert_eq!(got, payload);
        assert_eq!(u64_at(&got, 1).unwrap(), 9);
        assert_eq!(u64_at(&got, 9).unwrap(), 2);
        // A corrupted payload byte fails the crc check.
        let mut bad = bytes.clone();
        bad[10] ^= 0x01;
        tx.write_all(&bad).unwrap();
        assert!(read_frame(&mut rx, None).is_err());
    }
}
