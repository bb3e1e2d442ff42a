//! The durable engine: a [`DynamicTriangleKCore`] writer behind a
//! write-ahead log, publishing immutable epoch snapshots for readers.
//!
//! ## Write path
//!
//! Every mutation batch is appended to the WAL (fsync'd) **before** it is
//! applied to the in-memory maintainer — a crash at any point replays to
//! exactly the acknowledged state. Periodically the log is *compacted*:
//! the full graph + κ state, with the WAL sequence number and fencing
//! term it covers, is packed into the directory's one snapshot, the
//! `TKCSTOR` store [`STORE_FILE`] (tmp write, fsync, rename, directory
//! fsync), and the log is reset, bounding recovery time.
//!
//! ## Read path
//!
//! Readers never touch the writer. [`Engine::snapshot`] hands out an
//! `Arc<EpochSnapshot>` — an immutable graph clone and its κ vector
//! wrapped as a [`Decomposition`] view — published
//! atomically by swapping the `Arc` under a briefly held `RwLock` (readers
//! hold the read lock only long enough to clone the `Arc`, so queries
//! never wait on ingest, and in-flight queries keep their epoch alive
//! after the next one is published).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, TryLockError};
use std::time::Instant;

use tkc_core::decompose::Decomposition;
use tkc_core::dynamic::{DynamicTriangleKCore, UpdateStats};
use tkc_core::persist::{read_state_full, PersistError};
use tkc_faults::{DiskFile, FaultFile, FaultPlan};
use tkc_graph::components::{ComponentSummary, TrussTable};
use tkc_graph::csr::edge_supports_csr;
use tkc_graph::{Graph, VertexId};
use tkc_obs::{Counter, Gauge, Histogram, MetricsRegistry, SpanGuard};
use tkc_store::{pack_graph, PageCacheConfig, StoreError, StoreInfo, StoreReader};

use crate::error::{EngineError, EngineState};
use crate::repl::{ReplHandle, Role};
use crate::wal::{Recovery, Wal, WalError, WalOp};

/// Name of the text snapshot (`tkc_core::persist` state format) that
/// `tkc store pack <dir>` imports into [`STORE_FILE`]. The engine never
/// reads it; the first compaction after an import deletes it.
pub const STATE_FILE: &str = "state.tkc";
/// Name of the write-ahead log inside the state directory.
// analyze: allow(registry-consistency): file name, not a failpoint site id
pub const WAL_FILE: &str = "wal.log";
/// Name of the engine's snapshot: the packed `TKCSTOR` store each
/// compaction writes. Its header carries the WAL sequence number and
/// fencing term it covers; [`Engine::open`] rebuilds from its binary
/// sections and replays the WAL on top.
pub const STORE_FILE: &str = "state.tkcstor";

/// Where a new store is written before it is renamed over [`STORE_FILE`].
const STORE_TMP: &str = "state.tkcstor.tmp";

/// Tunables for [`Engine::open`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Directory holding `state.tkcstor` and `wal.log` (created if
    /// absent).
    pub dir: PathBuf,
    /// Fsync the WAL on every appended batch (turn off only for tests or
    /// throwaway ingest — an OS crash can then lose acknowledged ops).
    pub fsync: bool,
    /// Publish a fresh epoch snapshot automatically after this many
    /// applied ops (`0` = only on explicit [`Engine::publish`]).
    pub epoch_ops: usize,
    /// Compact the WAL into the store once it exceeds this many
    /// bytes (`0` = only on explicit [`Engine::compact`]).
    pub compact_bytes: u64,
    /// Hard cap on the vertex-id space. An op naming (or growing to) a
    /// vertex id at or past this is rejected with
    /// [`EngineError::InvalidOp`] *before* it reaches the WAL — without
    /// it, a single `INSERT 4294967295 0` line would ask the maintainer
    /// to allocate four billion adjacency lists.
    pub max_vertices: u32,
    /// When set, every WAL byte flows through a fault-injecting
    /// [`FaultFile`] driven by this plan — the hook `tkc serve
    /// --failpoint` and the chaos harness use. `None` (the default) is
    /// plain disk I/O.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl EngineConfig {
    /// Defaults: fsync on, an epoch every 256 ops, compaction at 4 MiB,
    /// 16Mi vertex-id cap, no fault injection.
    pub fn new(dir: impl Into<PathBuf>) -> EngineConfig {
        EngineConfig {
            dir: dir.into(),
            fsync: true,
            epoch_ops: 256,
            compact_bytes: 4 << 20,
            max_vertices: 1 << 24,
            fault_plan: None,
        }
    }
}

/// Handles onto the engine's [`MetricsRegistry`]: lock-free counters,
/// gauges, and latency histograms shared by the write path (engine) and
/// the serving layer. The first ten counters carry the exact names the
/// old ad-hoc struct rendered in `STATS`; the registry additionally
/// exposes every handle as a Prometheus series (`METRICS` command /
/// `--metrics-addr` scrape endpoint).
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Mutation ops applied (including recovery replay).
    pub ops_applied: Counter,
    /// Mutation ops skipped as no-ops (duplicate insert, missing remove).
    pub ops_skipped: Counter,
    /// Edge insertions that took effect.
    pub inserted: Counter,
    /// Edge removals that took effect.
    pub removed: Counter,
    /// Epoch snapshots published.
    pub epochs_published: Counter,
    /// WAL compactions performed.
    pub compactions: Counter,
    /// Ops replayed from the WAL during the last recovery.
    pub recovery_replays: Counter,
    /// Torn tail bytes dropped during the last recovery.
    pub recovery_torn_bytes: Counter,
    /// Read queries served from snapshots (maintained by the server).
    pub queries_served: Counter,
    /// Connections accepted (maintained by the server).
    pub connections: Counter,

    /// WAL append batches written.
    pub wal_appends: Counter,
    /// Encoded WAL bytes written.
    pub wal_bytes: Counter,
    /// Full append latency (encode + write + fsync) per batch.
    pub wal_append_seconds: Histogram,
    /// fsync portion of each append (zero-valued with fsync off).
    pub wal_fsync_seconds: Histogram,
    /// End-to-end [`Engine::apply`] latency per batch.
    pub apply_seconds: Histogram,
    /// Triangles touched (added + removed) per mutation op — the skew the
    /// maintenance papers predict, now measurable.
    pub triangles_per_op: Histogram,
    /// Epoch snapshot build + publish latency.
    pub epoch_publish_seconds: Histogram,
    /// Seconds since the current epoch was published (refreshed at render
    /// time).
    pub snapshot_age_seconds: Gauge,
    /// Connections currently open (maintained by the server).
    pub active_connections: Gauge,
    /// Writes that found the writer lock held and waited for it.
    pub backpressure_waits: Counter,

    /// Transitions into the read-only (degraded) state.
    pub degraded_total: Counter,
    /// Recovery attempts (each supervised retry, successful or not).
    pub recovery_attempts: Counter,
    /// Recoveries that returned the engine to `serving`.
    pub recoveries: Counter,
    /// Supervisor backoff sleeps before each recovery attempt.
    pub recovery_backoff_seconds: Histogram,
    /// Faults injected by the armed failpoint plan (refreshed from the
    /// plan at render time; 0 forever without `--failpoint`).
    pub faults_injected: Counter,
    /// 0/1 indicator per engine state (`tkc_engine_state{state="..."}`).
    pub state_serving: Gauge,
    /// See [`EngineMetrics::state_serving`].
    pub state_read_only: Gauge,
    /// See [`EngineMetrics::state_serving`].
    pub state_recovering: Gauge,
    /// See [`EngineMetrics::state_serving`].
    pub state_follower: Gauge,
    /// See [`EngineMetrics::state_serving`].
    pub state_diverged: Gauge,
    /// 0/1 indicator per replication role
    /// (`tkc_engine_role{role="..."}`).
    pub role_standalone: Gauge,
    /// See [`EngineMetrics::role_standalone`].
    pub role_primary: Gauge,
    /// See [`EngineMetrics::role_standalone`].
    pub role_follower: Gauge,
}

impl EngineMetrics {
    /// Registers every handle on `reg` (idempotent — reopening the same
    /// registry yields the same underlying atomics).
    fn register(reg: &MetricsRegistry) -> EngineMetrics {
        EngineMetrics {
            ops_applied: reg.counter(
                "tkc_engine_ops_applied_total",
                "Mutation ops applied (including recovery replay)",
            ),
            ops_skipped: reg.counter(
                "tkc_engine_ops_skipped_total",
                "Mutation ops skipped as no-ops",
            ),
            inserted: reg.counter(
                "tkc_engine_inserted_total",
                "Edge insertions that took effect",
            ),
            removed: reg.counter("tkc_engine_removed_total", "Edge removals that took effect"),
            epochs_published: reg.counter(
                "tkc_engine_epochs_published_total",
                "Epoch snapshots published",
            ),
            compactions: reg.counter("tkc_engine_compactions_total", "WAL compactions performed"),
            recovery_replays: reg.int_gauge(
                "tkc_engine_recovery_replays",
                "Ops replayed from the WAL during the last recovery",
            ),
            recovery_torn_bytes: reg.int_gauge(
                "tkc_engine_recovery_torn_bytes",
                "Torn tail bytes dropped during the last recovery",
            ),
            queries_served: reg.counter(
                "tkc_server_queries_total",
                "Read queries served from snapshots",
            ),
            connections: reg.counter("tkc_server_connections_total", "Connections accepted"),
            wal_appends: reg.counter("tkc_engine_wal_appends_total", "WAL append batches written"),
            wal_bytes: reg.counter("tkc_engine_wal_bytes_total", "Encoded WAL bytes written"),
            wal_append_seconds: reg.histogram_seconds(
                "tkc_engine_wal_append_seconds",
                "WAL append latency per batch (encode + write + fsync)",
            ),
            wal_fsync_seconds: reg.histogram_seconds(
                "tkc_engine_wal_fsync_seconds",
                "fsync portion of each WAL append",
            ),
            apply_seconds: reg.histogram_seconds(
                "tkc_engine_apply_seconds",
                "End-to-end apply latency per batch",
            ),
            triangles_per_op: reg.histogram_plain(
                "tkc_engine_triangles_per_op",
                "Triangles touched (added + removed) per mutation op",
            ),
            epoch_publish_seconds: reg.histogram_seconds(
                "tkc_engine_epoch_publish_seconds",
                "Epoch snapshot build + publish latency",
            ),
            snapshot_age_seconds: reg.gauge(
                "tkc_engine_snapshot_age_seconds",
                "Seconds since the current epoch snapshot was published",
            ),
            active_connections: reg.gauge(
                "tkc_server_active_connections",
                "Connections currently open",
            ),
            backpressure_waits: reg.counter(
                "tkc_server_backpressure_waits_total",
                "Writes that found the writer lock held and waited for it",
            ),
            degraded_total: reg.counter(
                "tkc_engine_degraded_total",
                "Transitions into the read-only (degraded) state",
            ),
            recovery_attempts: reg.counter(
                "tkc_recovery_attempts_total",
                "Supervised recovery attempts (successful or not)",
            ),
            recoveries: reg.counter(
                "tkc_recoveries_total",
                "Recoveries that returned the engine to serving",
            ),
            recovery_backoff_seconds: reg.histogram_seconds(
                "tkc_recovery_backoff_seconds",
                "Supervisor backoff sleeps before each recovery attempt",
            ),
            faults_injected: reg.counter(
                "tkc_faults_injected_total",
                "Faults injected by the armed failpoint plan",
            ),
            state_serving: reg.gauge_with(
                "tkc_engine_state",
                "1 for the engine's current state, 0 for the others",
                &[("state", "serving")],
            ),
            state_read_only: reg.gauge_with(
                "tkc_engine_state",
                "1 for the engine's current state, 0 for the others",
                &[("state", "read_only")],
            ),
            state_recovering: reg.gauge_with(
                "tkc_engine_state",
                "1 for the engine's current state, 0 for the others",
                &[("state", "recovering")],
            ),
            state_follower: reg.gauge_with(
                "tkc_engine_state",
                "1 for the engine's current state, 0 for the others",
                &[("state", "follower")],
            ),
            state_diverged: reg.gauge_with(
                "tkc_engine_state",
                "1 for the engine's current state, 0 for the others",
                &[("state", "diverged")],
            ),
            role_standalone: reg.gauge_with(
                "tkc_engine_role",
                "1 for the engine's replication role, 0 for the others",
                &[("role", "standalone")],
            ),
            role_primary: reg.gauge_with(
                "tkc_engine_role",
                "1 for the engine's replication role, 0 for the others",
                &[("role", "primary")],
            ),
            role_follower: reg.gauge_with(
                "tkc_engine_role",
                "1 for the engine's replication role, 0 for the others",
                &[("role", "follower")],
            ),
        }
    }

    /// Reflects `state` into the per-state 0/1 `tkc_engine_state` series.
    fn set_state_gauges(&self, state: EngineState) {
        self.state_serving
            .set(f64::from(u8::from(state == EngineState::Serving)));
        self.state_read_only
            .set(f64::from(u8::from(state == EngineState::ReadOnly)));
        self.state_recovering
            .set(f64::from(u8::from(state == EngineState::Recovering)));
        self.state_follower
            .set(f64::from(u8::from(state == EngineState::Follower)));
        self.state_diverged
            .set(f64::from(u8::from(state == EngineState::Diverged)));
    }

    /// Reflects `role` into the per-role 0/1 `tkc_engine_role` series.
    fn set_role_gauges(&self, role: Role) {
        self.role_standalone
            .set(f64::from(u8::from(role == Role::Standalone)));
        self.role_primary
            .set(f64::from(u8::from(role == Role::Primary)));
        self.role_follower
            .set(f64::from(u8::from(role == Role::Follower)));
    }
}

/// An immutable, atomically published view of the graph and its κ values.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    graph: Graph,
    decomp: Decomposition,
    stats: UpdateStats,
    ops_applied: u64,
    /// Every level's `TRUSS` answer, built by the epoch's first
    /// [`EpochSnapshot::truss`] call and never at publish.
    truss_table: OnceLock<TrussTable>,
}

impl EpochSnapshot {
    /// Monotone publication counter (1 = the recovery snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The κ view over [`EpochSnapshot::graph`].
    pub fn decomposition(&self) -> &Decomposition {
        &self.decomp
    }

    /// κ of edge `{u, v}`, or `None` when absent.
    pub fn kappa(&self, u: u32, v: u32) -> Option<u32> {
        let e = self.graph.edge_between(VertexId(u), VertexId(v))?;
        Some(self.decomp.kappa(e))
    }

    /// Largest κ in the snapshot.
    pub fn max_kappa(&self) -> u32 {
        self.decomp.max_kappa()
    }

    /// All maximal Triangle K-Cores of number ≥ `k` (`k` clamped to ≥ 1),
    /// summarized; all zeros above max κ. The epoch's first call builds
    /// the [`TrussTable`] of every level in one triangle pass, and every
    /// call reads its answer from that table. Records an `extract.truss`
    /// span (attribute `k`) under the current request span when tracing
    /// is on, and under it, on the building call, an `extract.truss_table`
    /// span (attributes `levels` and `triangles`).
    pub fn truss(&self, k: u32) -> ComponentSummary {
        let k = k.max(1);
        let mut span = SpanGuard::child("extract.truss");
        span.attr("k", u64::from(k));
        self.truss_table
            .get_or_init(|| {
                let mut build = SpanGuard::child("extract.truss_table");
                let table = TrussTable::new(&self.graph, self.decomp.kappa_slice());
                build.attr("levels", u64::from(table.max_level()));
                build.attr("triangles", table.triangles());
                table
            })
            .level(k)
    }

    /// Cumulative maintenance counters at publication time.
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }

    /// Total ops applied when this epoch was published.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Live edge count.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
}

/// Outcome of one applied batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Insertions that took effect.
    pub inserted: usize,
    /// Removals that took effect.
    pub removed: usize,
    /// Ops that were no-ops (duplicate insert, self loop, missing remove).
    pub skipped: usize,
}

/// The writer half: maintainer + WAL, always mutated under one mutex.
#[derive(Debug)]
struct Writer {
    core: DynamicTriangleKCore,
    wal: Wal,
    cumulative: UpdateStats,
    epoch: u64,
    ops_applied: u64,
    since_epoch: usize,
}

/// The durable ingest/query engine. Cheap to share: wrap it in an `Arc`
/// and hand clones to ingest and query threads.
#[derive(Debug)]
pub struct Engine {
    writer: Mutex<Writer>,
    published: RwLock<Arc<EpochSnapshot>>,
    registry: Arc<MetricsRegistry>,
    metrics: EngineMetrics,
    /// `tkc_obs::process_nanos` at the last epoch publication (feeds the
    /// snapshot-age gauge).
    last_publish_nanos: AtomicU64,
    /// [`EngineState`] as a `u8` (see `EngineState::as_u8`).
    state: AtomicU8,
    /// Why the engine left `Serving` (empty while healthy).
    degraded_reason: Mutex<String>,
    /// Monotonic WAL sequence number of the last applied op: the state
    /// header's compaction floor plus every op applied since. Written
    /// under the writer lock; the atomic is a read-side mirror for
    /// STATS/handshakes.
    applied_seq: AtomicU64,
    /// Replication fencing term (persisted in the state header at each
    /// compaction). A node refuses writes once it learns of a higher
    /// term. Written under the writer lock, mirrored for readers.
    term: AtomicU64,
    /// [`Role`] as a `u8` (see `Role::as_u8`).
    role: AtomicU8,
    /// Latched when a higher term fences this node: the recovery
    /// supervisor must not resurrect a superseded primary into a
    /// writable state.
    fenced: AtomicBool,
    /// The replication subsystem attached by [`crate::repl::start`]
    /// (never set on standalone engines).
    repl: OnceLock<ReplHandle>,
    config: EngineConfig,
}

/// Opens the WAL storage per config: plain disk, or disk wrapped in the
/// configured fault plan.
fn open_wal(config: &EngineConfig) -> Result<(Wal, Recovery), WalError> {
    let path = config.dir.join(WAL_FILE);
    let disk = DiskFile::open(&path).map_err(|e| WalError {
        site: "wal.open",
        source: e.into(),
    })?;
    match &config.fault_plan {
        Some(plan) => Wal::open_with(
            Box::new(FaultFile::new(Box::new(disk), Arc::clone(plan))),
            config.fsync,
        ),
        None => Wal::open_with(Box::new(disk), config.fsync),
    }
}

impl Engine {
    /// Opens (or creates) the engine state in `config.dir`: loads the
    /// store if present (graph, κ, and the seq and term in its header),
    /// replays the WAL over it, truncates any torn tail, and publishes
    /// the recovered state as epoch 1. A text `state.tkc` with no store,
    /// or a store of an older format, fails with
    /// [`EngineError::NeedsImport`]; a WAL that starts from a compaction
    /// floor with no store beside it fails with
    /// [`EngineError::MissingStore`].
    pub fn open(config: EngineConfig) -> Result<Engine, EngineError> {
        std::fs::create_dir_all(&config.dir)?;
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = EngineMetrics::register(&registry);
        let store = open_store(&config.dir)?;
        let (wal, recovery) = open_wal(&config)?;
        let Recovery {
            ops,
            torn_bytes,
            floor_seq: wal_floor,
        } = recovery;
        let (mut core, floor_seq, term) = match (store, wal_floor) {
            (Some(store), _) => store,
            (None, None) => (DynamicTriangleKCore::new(Graph::new()), 0, 0),
            (None, Some(floor_seq)) => {
                return Err(EngineError::MissingStore {
                    dir: config.dir.clone(),
                    floor_seq,
                })
            }
        };
        let mut replay_report = ApplyReport::default();
        for &op in &ops {
            apply_to_core(&mut core, op, &mut replay_report);
        }
        metrics.recovery_replays.set(ops.len() as u64);
        metrics.recovery_torn_bytes.set(torn_bytes);
        metrics.ops_applied.set(ops.len() as u64);

        let mut cumulative = UpdateStats::default();
        cumulative.absorb(core.stats());
        core.reset_stats();

        let mut writer = Writer {
            core,
            wal,
            cumulative,
            epoch: 0,
            ops_applied: ops.len() as u64,
            since_epoch: 0,
        };
        let first = Arc::new(snapshot_of(&mut writer, &metrics));
        metrics.set_state_gauges(EngineState::Serving);
        metrics.set_role_gauges(Role::Standalone);
        let applied_seq = floor_seq + ops.len() as u64;
        Ok(Engine {
            writer: Mutex::new(writer),
            published: RwLock::new(first),
            registry,
            metrics,
            last_publish_nanos: AtomicU64::new(tkc_obs::process_nanos()),
            state: AtomicU8::new(EngineState::Serving.as_u8()),
            degraded_reason: Mutex::new(String::new()),
            applied_seq: AtomicU64::new(applied_seq),
            term: AtomicU64::new(term),
            role: AtomicU8::new(Role::Standalone.as_u8()),
            fenced: AtomicBool::new(false),
            repl: OnceLock::new(),
            config,
        })
    }

    /// Where the engine is in its serving state machine.
    pub fn state(&self) -> EngineState {
        EngineState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Why the engine is not `Serving` (`None` while healthy).
    pub fn degraded_reason(&self) -> Option<String> {
        match self.state() {
            EngineState::Serving => None,
            _ => Some(lock_reason(&self.degraded_reason).clone()),
        }
    }

    pub(crate) fn set_state(&self, state: EngineState) {
        self.state.store(state.as_u8(), Ordering::Release);
        self.metrics.set_state_gauges(state);
    }

    /// The engine's replication role (standalone until
    /// [`crate::repl::start`] attaches a subsystem).
    pub fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::Acquire))
    }

    pub(crate) fn set_role(&self, role: Role) {
        self.role.store(role.as_u8(), Ordering::Release);
        self.metrics.set_role_gauges(role);
    }

    /// Monotonic WAL sequence number of the last applied op (compaction
    /// floor + ops applied since) — the replication watermark.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::Relaxed)
    }

    /// The replication fencing term this node last persisted or learned.
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::Relaxed)
    }

    pub(crate) fn set_term(&self, term: u64) {
        self.term.store(term, Ordering::Relaxed);
    }

    /// Installs the replication subsystem handle (once, at serve start).
    pub(crate) fn set_repl(&self, handle: ReplHandle) {
        let _ = self.repl.set(handle);
    }

    /// Where writes should go when this node is a follower.
    fn primary_addr(&self) -> String {
        self.repl
            .get()
            .and_then(|h| h.primary_addr())
            .unwrap_or_else(|| "unknown".to_string())
    }

    /// Learns of a higher fencing term: records it, closes the hub's
    /// follower streams, and drops to read-only — the node was
    /// superseded by a promoted follower and must not accept writes.
    pub(crate) fn fence(&self, new_term: u64) {
        if new_term <= self.term() {
            return;
        }
        self.set_term(new_term);
        self.fenced.store(true, Ordering::Relaxed);
        if let Some(h) = self.repl.get() {
            h.close_followers();
        }
        self.enter_degraded(format!("fenced by term {new_term}"));
    }

    /// Drops into read-only mode: records the reason, flips the state
    /// gauges, and logs. Idempotent — repeated failures while already
    /// degraded keep the *first* reason (the root cause).
    fn enter_degraded(&self, reason: String) {
        {
            let mut guard = lock_reason(&self.degraded_reason);
            if guard.is_empty() {
                *guard = reason.clone();
            }
        }
        if self.state() != EngineState::ReadOnly {
            self.metrics.degraded_total.inc();
            tkc_obs::warn!("engine degraded, serving read-only: {reason}");
        }
        self.set_state(EngineState::ReadOnly);
    }

    /// One supervised recovery attempt: re-opens the WAL (the in-memory
    /// state is authoritative — it holds exactly the acknowledged ops, so
    /// the on-disk log's replay is discarded rather than trusted), then
    /// compacts that state into a fresh snapshot + empty log. On success
    /// the engine returns to `Serving`; on failure it stays `ReadOnly`
    /// with the original reason and the error is returned for the
    /// supervisor's backoff loop.
    pub fn recover(&self) -> Result<(), EngineError> {
        if matches!(
            self.state(),
            EngineState::Serving | EngineState::Follower | EngineState::Diverged
        ) {
            return Ok(());
        }
        // A fenced node was superseded, not broken: recovery would only
        // resurrect a split brain. It stays read-only until an operator
        // restarts it (typically as a follower of the new primary).
        if self.fenced.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.metrics.recovery_attempts.inc();
        self.set_state(EngineState::Recovering);
        let mut w = lock_writer(&self.writer);
        let attempt = (|| -> Result<(), EngineError> {
            let (wal, _discarded_replay) = open_wal(&self.config)?;
            w.wal = wal;
            self.compact_locked(&mut w)
        })();
        match attempt {
            Ok(()) => {
                *lock_reason(&self.degraded_reason) = String::new();
                // A recovered follower goes back to replicating, not to
                // accepting writes.
                if self.role() == Role::Follower {
                    self.set_state(EngineState::Follower);
                } else {
                    self.set_state(EngineState::Serving);
                }
                self.metrics.recoveries.inc();
                tkc_obs::info!("engine recovered: wal reopened and compacted, serving again");
                Ok(())
            }
            Err(e) => {
                self.set_state(EngineState::ReadOnly);
                Err(e)
            }
        }
    }

    /// The engine's counters (shared with the serving layer).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The per-engine metrics registry (for registering additional
    /// families, e.g. the server's per-command series).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The current epoch snapshot. Clone-of-`Arc` cost; never blocks on
    /// ingest beyond the instant of a publication pointer swap.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&lock_read(&self.published))
    }

    /// Durably applies a batch: WAL append + fsync first, then the
    /// in-memory maintainer, then (per config) epoch publication and WAL
    /// compaction.
    ///
    /// Failure semantics: a batch that fails validation
    /// ([`EngineError::InvalidOp`]) touches nothing; a batch whose WAL
    /// append or fsync fails is **not acknowledged and not applied** —
    /// the engine drops to read-only ([`EngineError::Wal`]) and later
    /// writes get [`EngineError::Degraded`] until recovery.
    pub fn apply(&self, ops: &[WalOp]) -> Result<ApplyReport, EngineError> {
        self.apply_inner(ops, false)
    }

    /// [`Engine::apply`] for ops arriving over the replication stream:
    /// identical durability (the follower's own WAL is appended first),
    /// but permitted while the engine is in the read-only `Follower`
    /// state. Client writes must keep going through [`Engine::apply`].
    pub fn apply_replicated(&self, ops: &[WalOp]) -> Result<ApplyReport, EngineError> {
        self.apply_inner(ops, true)
    }

    fn apply_inner(&self, ops: &[WalOp], replicated: bool) -> Result<ApplyReport, EngineError> {
        if ops.is_empty() {
            return Ok(ApplyReport::default());
        }
        let m = &self.metrics;
        let apply_start = Instant::now();
        // Inert (one relaxed load) unless span tracing is on; a child of
        // the serving request's span when one is open on this thread.
        let mut apply_span = SpanGuard::child("engine.apply");
        apply_span.attr("ops", ops.len() as u64);
        let mut w = match self.writer.try_lock() {
            Ok(w) => w,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                m.backpressure_waits.inc();
                lock_writer(&self.writer)
            }
        };
        // State and validation checks live under the writer lock so a
        // degrading batch and its successor cannot interleave.
        match (self.state(), replicated) {
            (EngineState::Serving, _) | (EngineState::Follower, true) => {}
            (EngineState::Follower | EngineState::Diverged, false) => {
                return Err(EngineError::Readonly {
                    primary: self.primary_addr(),
                });
            }
            _ => {
                return Err(EngineError::Degraded {
                    reason: lock_reason(&self.degraded_reason).clone(),
                });
            }
        }
        self.validate(ops, &w)?;
        let wal_start = Instant::now();
        let mut wal_span = SpanGuard::child("engine.wal_append");
        let append = match w.wal.append_with(ops) {
            Ok(info) => info,
            Err(e) => {
                self.enter_degraded(e.to_string());
                return Err(e.into());
            }
        };
        wal_span.attr("bytes", append.bytes);
        // The fsync happened inside append_with; back-date it as a child
        // of the still-open WAL span from its measured duration.
        tkc_obs::span::record_manual("engine.wal_fsync", append.fsync);
        drop(wal_span);
        m.wal_append_seconds.record_duration(wal_start.elapsed());
        m.wal_fsync_seconds.record_duration(append.fsync);
        m.wal_appends.inc();
        m.wal_bytes.add(append.bytes);
        let mut report = ApplyReport::default();
        let mut cascade_span = SpanGuard::child("engine.cascade");
        let mut prev = w.core.stats();
        for &op in ops {
            apply_to_core(&mut w.core, op, &mut report);
            let cur = w.core.stats();
            m.triangles_per_op.record(
                (cur.triangles_added - prev.triangles_added)
                    + (cur.triangles_removed - prev.triangles_removed),
            );
            prev = cur;
        }
        let stats = w.core.stats();
        cascade_span.attr("triangles", stats.triangles_added + stats.triangles_removed);
        cascade_span.attr("levels", stats.promotions + stats.demotions);
        drop(cascade_span);
        w.core.reset_stats();
        w.cumulative.absorb(stats);
        w.ops_applied += ops.len() as u64;
        w.since_epoch += ops.len();
        // Written under the writer lock; readers only display it, so a
        // relaxed store is all the ordering the watermark needs.
        let seq = self.applied_seq.load(Ordering::Relaxed) + ops.len() as u64;
        self.applied_seq.store(seq, Ordering::Relaxed);
        if let Some(h) = self.repl.get() {
            h.on_apply(ops, seq, &w.core, self.term());
        }
        m.ops_applied.add(ops.len() as u64);
        m.ops_skipped.add(report.skipped as u64);
        m.inserted.add(report.inserted as u64);
        m.removed.add(report.removed as u64);
        if self.config.epoch_ops > 0 && w.since_epoch >= self.config.epoch_ops {
            self.publish_locked(&mut w);
        }
        if self.config.compact_bytes > 0 && w.wal.len_bytes() > self.config.compact_bytes {
            // The batch itself is durable and applied; a failed background
            // compaction degrades the engine but must not un-acknowledge
            // the write that merely triggered it.
            if let Err(e) = self.compact_locked(&mut w) {
                self.enter_degraded(format!("compaction: {e}"));
            }
        }
        m.apply_seconds.record_duration(apply_start.elapsed());
        Ok(report)
    }

    /// Rejects ops that name (or grow to) vertex ids past the configured
    /// cap before anything reaches the WAL. `u32` ids make this the only
    /// unbounded-allocation hazard in the op vocabulary.
    fn validate(&self, ops: &[WalOp], w: &Writer) -> Result<(), EngineError> {
        let cap = self.config.max_vertices;
        let mut projected = w.core.graph().num_vertices() as u64;
        for &op in ops {
            match op {
                WalOp::Insert(u, v) | WalOp::Remove(u, v) => {
                    let top = u.max(v);
                    if top >= cap {
                        return Err(EngineError::InvalidOp {
                            reason: format!("vertex id {top} exceeds max_vertices {cap}"),
                        });
                    }
                    projected = projected.max(u64::from(top) + 1);
                }
                WalOp::AddVertices(n) => {
                    projected += u64::from(n);
                }
            }
            if projected > u64::from(cap) {
                return Err(EngineError::InvalidOp {
                    reason: format!("vertex count {projected} exceeds max_vertices {cap}"),
                });
            }
        }
        Ok(())
    }

    /// Durably inserts edge `{u, v}`, returning its κ right after the
    /// update (read-your-write, without waiting for an epoch), or `None`
    /// when the insert was a no-op (self loop or duplicate).
    pub fn insert(&self, u: u32, v: u32) -> Result<Option<u32>, EngineError> {
        let report = self.apply(&[WalOp::Insert(u, v)])?;
        if report.inserted == 0 {
            return Ok(None);
        }
        let w = lock_writer(&self.writer);
        let kappa = w
            .core
            .graph()
            .edge_between(VertexId(u), VertexId(v))
            .map(|e| w.core.kappa(e));
        Ok(kappa)
    }

    /// Durably removes edge `{u, v}`; `false` when it wasn't there.
    pub fn remove(&self, u: u32, v: u32) -> Result<bool, EngineError> {
        Ok(self.apply(&[WalOp::Remove(u, v)])?.removed == 1)
    }

    /// Publishes the writer's current state as a fresh epoch snapshot and
    /// returns the new epoch number.
    pub fn publish(&self) -> u64 {
        let mut w = lock_writer(&self.writer);
        self.publish_locked(&mut w);
        w.epoch
    }

    /// Compacts the WAL: packs the graph, κ, seq and term into the store
    /// (one file, one rename), then resets the log.
    pub fn compact(&self) -> Result<(), EngineError> {
        let mut w = lock_writer(&self.writer);
        self.compact_locked(&mut w)
    }

    /// Current epoch number without taking a snapshot.
    pub fn epoch(&self) -> u64 {
        lock_read(&self.published).epoch()
    }

    /// Renders every counter as a plain-text `key value` block — the
    /// `STATS` wire response and the operator-facing metrics surface.
    pub fn metrics_text(&self) -> String {
        let m = &self.metrics;
        let snap = self.snapshot();
        let stats = {
            let w = lock_writer(&self.writer);
            w.cumulative
        };
        let mut out = String::new();
        for (key, value) in [
            ("epoch", snap.epoch()),
            ("vertices", snap.num_vertices() as u64),
            ("edges", snap.num_edges() as u64),
            ("max_kappa", u64::from(snap.max_kappa())),
            ("ops_applied", m.ops_applied.get()),
            ("ops_skipped", m.ops_skipped.get()),
            ("inserted", m.inserted.get()),
            ("removed", m.removed.get()),
            ("epochs_published", m.epochs_published.get()),
            ("compactions", m.compactions.get()),
            ("recovery_replays", m.recovery_replays.get()),
            ("recovery_torn_bytes", m.recovery_torn_bytes.get()),
            ("queries_served", m.queries_served.get()),
            ("connections", m.connections.get()),
            ("triangles_added", stats.triangles_added),
            ("triangles_removed", stats.triangles_removed),
            ("promotions", stats.promotions),
            ("demotions", stats.demotions),
            ("edges_examined", stats.edges_examined),
            ("degraded", u64::from(self.state() != EngineState::Serving)),
            ("recoveries", m.recoveries.get()),
            ("seq", self.applied_seq()),
            ("term", self.term()),
        ] {
            out.push_str(key);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out.push_str("role ");
        out.push_str(self.role().as_str());
        out.push('\n');
        if let Some(h) = self.repl.get() {
            for (key, value) in h.stats_keys() {
                out.push_str(key);
                out.push(' ');
                out.push_str(&value.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Renders the full Prometheus text exposition: the engine's registry
    /// (graph gauges refreshed from the current snapshot) followed by the
    /// process-global registry (kernel phase timers, worker pool).
    pub fn prometheus_text(&self) -> String {
        let snap = self.snapshot();
        let reg = &self.registry;
        reg.gauge("tkc_engine_epoch", "Current epoch number")
            .set(snap.epoch() as f64);
        reg.gauge("tkc_graph_vertices", "Vertices in the current snapshot")
            .set(snap.num_vertices() as f64);
        reg.gauge("tkc_graph_edges", "Live edges in the current snapshot")
            .set(snap.num_edges() as f64);
        reg.gauge(
            "tkc_graph_max_kappa",
            "Largest kappa in the current snapshot",
        )
        .set(f64::from(snap.max_kappa()));
        let age = tkc_obs::process_nanos()
            .saturating_sub(self.last_publish_nanos.load(Ordering::Relaxed));
        self.metrics.snapshot_age_seconds.set(age as f64 / 1e9);
        if let Some(plan) = &self.config.fault_plan {
            self.metrics.faults_injected.set(plan.injected_total());
        }
        let mut out = self.registry.render();
        out.push_str(&MetricsRegistry::global().render());
        out
    }

    fn publish_locked(&self, w: &mut Writer) {
        let _publish_span = SpanGuard::child("engine.publish");
        let start = Instant::now();
        let snap = Arc::new(snapshot_of(w, &self.metrics));
        *lock_write(&self.published) = snap;
        w.since_epoch = 0;
        self.last_publish_nanos
            .store(tkc_obs::process_nanos(), Ordering::Relaxed);
        self.metrics
            .epoch_publish_seconds
            .record_duration(start.elapsed());
    }

    fn compact_locked(&self, w: &mut Writer) -> Result<(), EngineError> {
        let tmp = self.config.dir.join(STORE_TMP);
        let g = w.core.graph();
        let supports = edge_supports_csr(g);
        pack_graph(g, &supports, Some(w.core.kappa_slice()))
            .map_err(store_err)?
            .with_position(self.applied_seq.load(Ordering::Relaxed), self.term())
            .write_path(&tmp)?;
        commit_store(&self.config.dir, &tmp)?;
        w.wal.reset_to(self.applied_seq.load(Ordering::Relaxed))?;
        self.metrics.compactions.inc();
        Ok(())
    }

    /// Replaces the engine's entire state with a packed-store snapshot
    /// streamed from the primary (a follower bootstrap): checks that the
    /// store's header carries the announced `seq` and `term`, persists it
    /// the way compaction does, rebuilds the maintainer from it, resets
    /// the local WAL, and publishes the result as a fresh epoch.
    ///
    /// A crash after the rename but before the WAL reset leaves a stale
    /// log next to a newer store; replay over it is idempotent
    /// (apply-to-core skips duplicates), so the watermark can only move
    /// forward.
    pub(crate) fn install_snapshot(
        &self,
        store_bytes: &[u8],
        seq: u64,
        term: u64,
    ) -> Result<(), EngineError> {
        let mut w = lock_writer(&self.writer);
        let tmp = self.config.dir.join(STORE_TMP);
        std::fs::write(&tmp, store_bytes)?;
        std::fs::File::open(&tmp)?.sync_all()?;
        let (core, store_seq, store_term) = load_store(&tmp).map_err(store_err)?;
        if (store_seq, store_term) != (seq, term) {
            return Err(store_err(StoreError::Corrupt(format!(
                "snapshot header holds seq {store_seq} term {store_term}, \
                 the stream announced seq {seq} term {term}"
            ))));
        }
        commit_store(&self.config.dir, &tmp)?;
        w.core = core;
        w.cumulative = UpdateStats::default();
        w.wal.reset_to(seq)?;
        self.applied_seq.store(seq, Ordering::Relaxed);
        self.set_term(term);
        self.publish_locked(&mut w);
        Ok(())
    }

    /// Captures the writer's current state as packed-store bytes (seq and
    /// term in the header) plus the watermark (seq, term) they represent
    /// — what a bootstrapping follower receives over the wire.
    pub(crate) fn snapshot_for_replication(&self) -> Result<(Vec<u8>, u64, u64), EngineError> {
        let w = lock_writer(&self.writer);
        let (seq, term) = (self.applied_seq.load(Ordering::Relaxed), self.term());
        let g = w.core.graph();
        let supports = edge_supports_csr(g);
        let parts = pack_graph(g, &supports, Some(w.core.kappa_slice()))
            .map_err(store_err)?
            .with_position(seq, term);
        Ok((parts.to_bytes(), seq, term))
    }

    /// The κ-stamp of the writer's current state — the follower side of
    /// the divergence probe (compared against the primary's per-interval
    /// [`tkc_verify::kappa_stamp`] checkpoints).
    pub(crate) fn kappa_stamp_now(&self) -> u64 {
        let w = lock_writer(&self.writer);
        tkc_verify::kappa_stamp(w.core.graph(), w.core.kappa_slice())
    }

    /// One-line replication detail for `HEALTH` on follower nodes
    /// (`None` on standalone/primary nodes).
    pub fn replication_health(&self) -> Option<String> {
        let h = self.repl.get()?;
        let addr = h.primary_addr()?;
        let (lag_seq, lag_seconds) = h.lag();
        Some(format!(
            "following {addr} lag_seq={lag_seq} lag_seconds={lag_seconds}"
        ))
    }

    /// Promotes a follower to writable: bumps the fencing term, fences
    /// the old primary (best-effort `FENCE` upstream, stop tailing), and
    /// reopens for writes. Returns the new term.
    pub fn promote(&self) -> Result<u64, EngineError> {
        if self.role() != Role::Follower {
            return Err(EngineError::InvalidOp {
                reason: format!("not a follower (role {})", self.role().as_str()),
            });
        }
        let new_term = self.term() + 1;
        let becomes_primary = match self.repl.get() {
            Some(h) => h.promote(new_term),
            None => false,
        };
        self.set_term(new_term);
        self.set_role(if becomes_primary {
            Role::Primary
        } else {
            Role::Standalone
        });
        self.set_state(EngineState::Serving);
        // Persist the term so a restart cannot come back believing the
        // fenced primary's old term.
        self.compact()?;
        Ok(new_term)
    }
}

/// Loads the store in `dir`: the maintainer rebuilt from its graph and
/// κ sections, plus the seq and term in its header. `None` when the
/// directory holds neither a store nor a text snapshot (a fresh engine,
/// unless its WAL says otherwise).
fn open_store(dir: &Path) -> Result<Option<(DynamicTriangleKCore, u64, u64)>, EngineError> {
    let store_path = dir.join(STORE_FILE);
    if !store_path.exists() {
        if dir.join(STATE_FILE).exists() {
            return Err(EngineError::NeedsImport {
                dir: dir.to_path_buf(),
                found: format!("{STATE_FILE} and no {STORE_FILE}"),
            });
        }
        return Ok(None);
    }
    load_store(&store_path).map(Some).map_err(|e| match e {
        StoreError::UnsupportedVersion(v) if v < tkc_store::STORE_VERSION => {
            EngineError::NeedsImport {
                dir: dir.to_path_buf(),
                found: format!("{STORE_FILE} in TKCSTOR format version {v}"),
            }
        }
        other => store_err(other),
    })
}

/// Rebuilds a maintainer from the store at `path` (every section it
/// reads is crc-checked) and returns it with the header's seq and term.
fn load_store(path: &Path) -> Result<(DynamicTriangleKCore, u64, u64), StoreError> {
    let reader = StoreReader::open(path, PageCacheConfig::default())?;
    let g = reader.load_graph()?;
    let kappa = reader.read_kappa()?;
    Ok((
        DynamicTriangleKCore::from_parts(g, kappa),
        reader.seq(),
        reader.term(),
    ))
}

/// Makes the synced store at `tmp` the only snapshot in `dir`. A text
/// snapshot left by an import is superseded, so it goes first: a later
/// `tkc store pack <dir>` then cannot roll the newer store back to it.
/// The directory fsync makes the rename durable before the caller
/// truncates the WAL; without it a power loss could keep the truncation
/// and lose the rename, and with it acknowledged writes.
fn commit_store(dir: &Path, tmp: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(dir.join(STATE_FILE)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::rename(tmp, dir.join(STORE_FILE))?;
    sync_dir(dir)
}

/// fsyncs a directory so the renames and removals inside it are durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// The one-way text → store import behind `tkc store pack <dir>`: packs
/// `dir/state.tkc` (graph, κ, and the `seq` and `term` of its header)
/// into the directory's store. `state.tkc` stays where it is; the first
/// compaction after the import deletes it.
pub fn import_text_snapshot(dir: &Path) -> Result<StoreInfo, EngineError> {
    let (g, kappa, header) = read_state_full(std::fs::File::open(dir.join(STATE_FILE))?)?;
    let supports = edge_supports_csr(&g);
    let parts = pack_graph(&g, &supports, Some(&kappa))
        .map_err(store_err)?
        .with_position(header.seq, header.term);
    let tmp = dir.join(STORE_TMP);
    parts.write_path(&tmp)?;
    std::fs::rename(&tmp, dir.join(STORE_FILE))?;
    sync_dir(dir)?;
    Ok(parts.info())
}

/// Maps a packed-store failure into the engine's persistence error space
/// (raw I/O errors pass through so injected-crash detection still sees
/// them).
fn store_err(e: StoreError) -> EngineError {
    match e {
        StoreError::Io(io) => EngineError::Persist(PersistError::Io(io)),
        other => EngineError::Persist(PersistError::Io(std::io::Error::other(format!(
            "packed store: {other}"
        )))),
    }
}

/// Builds the next epoch snapshot from the writer state (bumps the epoch).
fn snapshot_of(w: &mut Writer, metrics: &EngineMetrics) -> EpochSnapshot {
    w.epoch += 1;
    metrics.epochs_published.inc();
    let graph = w.core.graph().clone();
    let decomp = Decomposition::from_kappa(&graph, w.core.kappa_slice().to_vec());
    EpochSnapshot {
        epoch: w.epoch,
        graph,
        decomp,
        stats: w.cumulative,
        ops_applied: w.ops_applied,
        truss_table: OnceLock::new(),
    }
}

/// Applies one op to the maintainer with the WAL's idempotent semantics:
/// endpoints are created on demand, duplicate inserts / self loops /
/// missing removes are skipped. Replay of any log prefix is therefore
/// deterministic regardless of how often the process died in between.
fn apply_to_core(core: &mut DynamicTriangleKCore, op: WalOp, report: &mut ApplyReport) {
    match op {
        WalOp::Insert(u, v) => {
            if u == v {
                report.skipped += 1;
                return;
            }
            let need = (u.max(v) as usize) + 1;
            if need > core.graph().num_vertices() {
                core.add_vertices(need - core.graph().num_vertices());
            }
            let (uv, vv) = (VertexId(u), VertexId(v));
            if core.graph().has_edge(uv, vv) || core.insert_edge(uv, vv).is_err() {
                report.skipped += 1;
            } else {
                report.inserted += 1;
            }
        }
        WalOp::Remove(u, v) => {
            if core.remove_edge_between(VertexId(u), VertexId(v)).is_ok() {
                report.removed += 1;
            } else {
                report.skipped += 1;
            }
        }
        WalOp::AddVertices(n) => {
            core.add_vertices(n as usize);
        }
    }
}

/// Lock helpers that survive poisoning: a panicked writer thread must not
/// wedge every reader, and the state it guards is rebuilt from the WAL on
/// restart anyway.
fn lock_writer<'a>(m: &'a Mutex<Writer>) -> std::sync::MutexGuard<'a, Writer> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn lock_reason<'a>(m: &'a Mutex<String>) -> std::sync::MutexGuard<'a, String> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn lock_read<'a>(
    l: &'a RwLock<Arc<EpochSnapshot>>,
) -> std::sync::RwLockReadGuard<'a, Arc<EpochSnapshot>> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

fn lock_write<'a>(
    l: &'a RwLock<Arc<EpochSnapshot>>,
) -> std::sync::RwLockWriteGuard<'a, Arc<EpochSnapshot>> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;
    use tkc_core::extract::cores_at_level;
    use tkc_obs::TraceBuffer;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tkc_engine_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn manual_config(dir: &std::path::Path) -> EngineConfig {
        EngineConfig {
            fsync: false,
            epoch_ops: 0,
            compact_bytes: 0,
            ..EngineConfig::new(dir)
        }
    }

    /// Inserts every edge of K5 on vertices `base..base+5`.
    fn clique_ops(base: u32) -> Vec<WalOp> {
        let mut ops = Vec::new();
        for i in 0..5 {
            for j in (i + 1)..5 {
                ops.push(WalOp::Insert(base + i, base + j));
            }
        }
        ops
    }

    #[test]
    fn fresh_engine_serves_empty_snapshot_then_grows() {
        let dir = temp_dir("grow");
        let engine = Engine::open(manual_config(&dir)).unwrap();
        assert_eq!(engine.snapshot().num_edges(), 0);
        assert_eq!(engine.snapshot().epoch(), 1);

        let report = engine.apply(&clique_ops(0)).unwrap();
        assert_eq!(report.inserted, 10);
        // Not yet published: readers still see epoch 1.
        assert_eq!(engine.snapshot().num_edges(), 0);
        let epoch = engine.publish();
        assert_eq!(epoch, 2);
        let snap = engine.snapshot();
        assert_eq!(snap.num_edges(), 10);
        assert_eq!(snap.max_kappa(), 3);
        assert_eq!(snap.kappa(0, 1), Some(3));
        assert_eq!(snap.kappa(0, 9), None);
        let t = snap.truss(3);
        assert_eq!((t.components, t.edges, t.vertices), (1, 10, 5));
    }

    #[test]
    fn insert_returns_read_your_write_kappa() {
        let dir = temp_dir("ryw");
        let engine = Engine::open(manual_config(&dir)).unwrap();
        for &op in &clique_ops(0)[..9] {
            engine.apply(&[op]).unwrap();
        }
        // The 10th K5 edge closes the clique: κ = 3 immediately.
        assert_eq!(engine.insert(3, 4).unwrap(), Some(3));
        assert_eq!(engine.insert(3, 4).unwrap(), None); // duplicate
        assert_eq!(engine.insert(7, 7).unwrap(), None); // self loop
        assert!(engine.remove(3, 4).unwrap());
        assert!(!engine.remove(3, 4).unwrap());
    }

    #[test]
    fn old_snapshots_survive_new_epochs() {
        let dir = temp_dir("epochs");
        let engine = Engine::open(manual_config(&dir)).unwrap();
        engine.apply(&clique_ops(0)).unwrap();
        engine.publish();
        let old = engine.snapshot();
        engine.apply(&[WalOp::Remove(0, 1)]).unwrap();
        engine.publish();
        let new = engine.snapshot();
        // The old Arc still answers with its frozen state.
        assert_eq!(old.kappa(0, 1), Some(3));
        assert_eq!(new.kappa(0, 1), None);
        assert!(new.epoch() > old.epoch());
    }

    #[test]
    fn kill_and_reopen_replays_the_wal() {
        let dir = temp_dir("replay");
        {
            let engine = Engine::open(manual_config(&dir)).unwrap();
            engine.apply(&clique_ops(0)).unwrap();
            engine
                .apply(&[WalOp::Remove(1, 2), WalOp::Insert(0, 5)])
                .unwrap();
            // No compact, no graceful anything: simulate SIGKILL by drop.
        }
        let engine = Engine::open(manual_config(&dir)).unwrap();
        let m = engine.metrics();
        assert_eq!(m.recovery_replays.get(), 12);
        let snap = engine.snapshot();
        assert_eq!(snap.num_edges(), 10); // 10 − 1 + 1
        assert_eq!(snap.kappa(1, 2), None);
        assert_eq!(snap.kappa(0, 5), Some(0));
        // Replayed κ equals a from-scratch decomposition.
        let fresh = Decomposition::compute_with(snap.graph(), 1);
        for e in snap.graph().edge_ids() {
            assert_eq!(snap.decomposition().kappa(e), fresh.kappa(e));
        }
    }

    #[test]
    fn compaction_snapshots_state_and_truncates_log() {
        let dir = temp_dir("compact");
        {
            let engine = Engine::open(manual_config(&dir)).unwrap();
            engine.apply(&clique_ops(0)).unwrap();
            engine.compact().unwrap();
            engine.apply(&[WalOp::Insert(0, 5)]).unwrap();
        }
        let engine = Engine::open(manual_config(&dir)).unwrap();
        // Only the post-compaction op is replayed; the rest came from the
        // store.
        assert_eq!(engine.metrics().recovery_replays.get(), 1);
        let snap = engine.snapshot();
        assert_eq!(snap.num_edges(), 11);
        assert_eq!(snap.kappa(0, 1), Some(3));
    }

    #[test]
    fn applied_seq_survives_compaction_and_reopen() {
        let dir = temp_dir("seqfloor");
        {
            let engine = Engine::open(manual_config(&dir)).unwrap();
            engine.apply(&clique_ops(0)).unwrap();
            assert_eq!(engine.applied_seq(), 10);
            // Compaction truncates the log but the watermark keeps
            // counting from the persisted floor.
            engine.compact().unwrap();
            engine.apply(&[WalOp::Insert(0, 5)]).unwrap();
            assert_eq!(engine.applied_seq(), 11);
        }
        let engine = Engine::open(manual_config(&dir)).unwrap();
        assert_eq!(engine.applied_seq(), 11);
        assert_eq!(engine.term(), 0);
        let text = engine.metrics_text();
        assert!(text.contains("seq 11"), "{text}");
        assert!(text.contains("role standalone"), "{text}");
    }

    #[test]
    fn auto_epoch_and_auto_compaction_trigger() {
        let dir = temp_dir("auto");
        let config = EngineConfig {
            epoch_ops: 4,
            compact_bytes: 64,
            ..manual_config(&dir)
        };
        let engine = Engine::open(config).unwrap();
        engine.apply(&clique_ops(0)).unwrap();
        // 10 ops ≥ 4: at least one automatic epoch beyond the initial one.
        assert!(engine.epoch() >= 2);
        assert_eq!(engine.snapshot().num_edges(), 10);
        // 10 records × 17 bytes > 64: compaction ran and reset the log.
        assert!(engine.metrics().compactions.get() >= 1);
        assert!(dir.join(STORE_FILE).exists());
    }

    #[test]
    fn prometheus_text_exposes_engine_series() {
        let dir = temp_dir("prom");
        let engine = Engine::open(manual_config(&dir)).unwrap();
        engine.apply(&clique_ops(0)).unwrap();
        engine.publish();
        let text = engine.prometheus_text();
        for series in [
            "tkc_engine_ops_applied_total 10",
            "tkc_engine_inserted_total 10",
            "tkc_engine_wal_appends_total 1",
            "tkc_engine_wal_bytes_total 170", // 10 ops x 17 bytes
            "tkc_engine_apply_seconds_count 1",
            "tkc_engine_triangles_per_op_count 10",
            "tkc_engine_epoch_publish_seconds_count",
            "tkc_engine_snapshot_age_seconds",
            "tkc_engine_epoch 2",
            "tkc_graph_edges 10",
            "tkc_graph_max_kappa 3",
            "# TYPE tkc_engine_apply_seconds histogram",
        ] {
            assert!(text.contains(series), "missing {series:?} in:\n{text}");
        }
        // K5 has 10 triangles; each one is reported exactly once across
        // the per-op samples, so the histogram sum is the triangle count.
        assert_eq!(engine.metrics().triangles_per_op.snapshot().sum, 10);
    }

    #[test]
    fn apply_records_a_nested_span_tree() {
        let _guard = crate::global_trace_test_guard();
        let dir = temp_dir("spans");
        let mut config = manual_config(&dir);
        config.epoch_ops = 10; // force an auto-publish inside the batch
        let engine = Engine::open(config).unwrap();
        let trace = TraceBuffer::global();
        trace.set_enabled(true);
        let trace_id;
        {
            let root = SpanGuard::root("INSERT");
            trace_id = root.trace_id().unwrap();
            engine.apply(&clique_ops(0)).unwrap();
        }
        trace.set_enabled(false);
        let spans = trace.spans_for_trace(trace_id);
        let find = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing span {name}: {spans:?}"))
        };
        let root = find("INSERT");
        let apply = find("engine.apply");
        let wal = find("engine.wal_append");
        let fsync = find("engine.wal_fsync");
        let cascade = find("engine.cascade");
        let publish = find("engine.publish");
        assert_eq!(root.parent_id, 0);
        assert_eq!(apply.parent_id, root.span_id);
        assert_eq!(wal.parent_id, apply.span_id);
        assert_eq!(fsync.parent_id, wal.span_id);
        assert_eq!(cascade.parent_id, apply.span_id);
        assert_eq!(publish.parent_id, apply.span_id);
        assert!(apply.attrs.contains(&("ops", 10)));
        assert!(cascade.attrs.contains(&("triangles", 10)));
        // Guard-created children nest within the apply span's bounds.
        for s in [wal, cascade, publish] {
            assert!(
                s.start_nanos >= apply.start_nanos,
                "{} starts early",
                s.name
            );
            assert!(
                s.start_nanos + s.duration_nanos <= apply.start_nanos + apply.duration_nanos,
                "{} escapes apply bounds",
                s.name
            );
        }
        trace.clear();
    }

    #[test]
    fn truss_records_an_extraction_span_under_the_request() {
        let _guard = crate::global_trace_test_guard();
        let dir = temp_dir("truss_span");
        let engine = Engine::open(manual_config(&dir)).unwrap();
        engine.apply(&clique_ops(0)).unwrap();
        engine.apply(&clique_ops(10)).unwrap();
        engine.publish();
        let snap = engine.snapshot();
        let trace = TraceBuffer::global();
        trace.set_enabled(true);
        let trace_id;
        {
            let root = SpanGuard::root("TRUSS");
            trace_id = root.trace_id().unwrap();
            let t = snap.truss(3);
            assert_eq!((t.components, t.edges, t.vertices), (2, 20, 10));
        }
        trace.set_enabled(false);
        let spans = trace.spans_for_trace(trace_id);
        let root = spans.iter().find(|s| s.name == "TRUSS").unwrap();
        let extract = spans
            .iter()
            .find(|s| s.name == "extract.truss")
            .unwrap_or_else(|| panic!("missing extract.truss: {spans:?}"));
        assert_eq!(extract.parent_id, root.span_id);
        assert_eq!(extract.attrs, [("k", 3)]);
        let build = spans
            .iter()
            .find(|s| s.name == "extract.truss_table")
            .unwrap_or_else(|| panic!("missing extract.truss_table: {spans:?}"));
        assert_eq!(build.parent_id, extract.span_id);
        // Two K5s: levels 1..=3, 2 × C(5,3) triangles.
        assert_eq!(build.attrs, [("levels", 3), ("triangles", 20)]);

        // A later TRUSS on the same epoch reads the table: no build span.
        let again;
        trace.set_enabled(true);
        {
            let root = SpanGuard::root("TRUSS");
            again = root.trace_id().unwrap();
            assert_eq!(snap.truss(1), snap.truss(2));
        }
        trace.set_enabled(false);
        let spans = trace.spans_for_trace(again);
        assert_eq!(
            spans.iter().filter(|s| s.name == "extract.truss").count(),
            2
        );
        assert!(spans.iter().all(|s| s.name != "extract.truss_table"));
        trace.clear();
        // Off, the span is inert: nothing reaches the ring.
        snap.truss(3);
        assert!(trace.spans_for_trace(trace_id).is_empty());
    }

    #[test]
    fn truss_after_a_publish_reflects_the_new_epoch() {
        let dir = temp_dir("truss_publish");
        let engine = Engine::open(manual_config(&dir)).unwrap();
        engine.apply(&clique_ops(0)).unwrap();
        engine.publish();
        let old = engine.snapshot();
        let t = old.truss(3);
        assert_eq!((t.components, t.edges, t.vertices), (1, 10, 5));
        assert_eq!(old.truss(4), ComponentSummary::default());

        // A second K5 and one edge out of the first: κ changes at
        // every level the old table answered.
        engine.apply(&clique_ops(10)).unwrap();
        engine.apply(&[WalOp::Remove(0, 1)]).unwrap();
        engine.publish();
        let new = engine.snapshot();
        for k in 0..=4 {
            let want = {
                let cores = cores_at_level(new.graph(), new.decomposition(), k.max(1));
                ComponentSummary {
                    components: cores.len(),
                    edges: cores.iter().map(|c| c.edges.len()).sum(),
                    vertices: cores.iter().map(|c| c.vertices.len()).sum(),
                }
            };
            assert_eq!(new.truss(k), want, "k {k}");
        }
        let t = new.truss(3);
        assert_eq!((t.components, t.edges, t.vertices), (1, 10, 5));
        assert_eq!(new.truss(2).components, 2);
        // The old epoch keeps its own table.
        assert_eq!(old.truss(3).components, 1);
        assert_eq!(old.truss(2).edges, 10);
    }

    #[test]
    fn concurrent_truss_callers_share_one_build() {
        let _guard = crate::global_trace_test_guard();
        let dir = temp_dir("truss_concurrent");
        let engine = Engine::open(manual_config(&dir)).unwrap();
        for base in [0, 10, 20] {
            engine.apply(&clique_ops(base)).unwrap();
        }
        engine
            .apply(&[
                WalOp::Insert(4, 10),
                WalOp::Insert(4, 11),
                WalOp::Insert(10, 11),
            ])
            .unwrap();
        engine.publish();
        let snap = engine.snapshot();
        let trace = TraceBuffer::global();
        trace.set_enabled(true);
        let barrier = std::sync::Barrier::new(4);
        let runs: Vec<(u64, Vec<ComponentSummary>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let root = SpanGuard::root("TRUSS");
                        barrier.wait();
                        let answers = (0..=5).map(|k| snap.truss(k)).collect();
                        (root.trace_id().unwrap(), answers)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        trace.set_enabled(false);
        let builds: usize = runs
            .iter()
            .map(|(id, _)| {
                trace
                    .spans_for_trace(*id)
                    .iter()
                    .filter(|s| s.name == "extract.truss_table")
                    .count()
            })
            .sum();
        assert_eq!(builds, 1);
        let (_, first) = &runs[0];
        assert!(runs.iter().all(|(_, answers)| answers == first));
        assert_eq!(first[3].components, 3);
        trace.clear();
    }

    #[test]
    fn metrics_text_lists_every_counter() {
        let dir = temp_dir("metrics");
        let engine = Engine::open(manual_config(&dir)).unwrap();
        engine.apply(&clique_ops(0)).unwrap();
        engine.publish();
        let text = engine.metrics_text();
        for key in [
            "epoch ",
            "ops_applied 10",
            "inserted 10",
            "promotions",
            "edges_examined",
            "recovery_replays 0",
        ] {
            assert!(text.contains(key), "missing {key:?} in:\n{text}");
        }
    }
}
