//! Differential oracle harness: drive seeded random edge-operation streams
//! through [`DynamicTriangleKCore`] and assert, after every batch, that the
//! incrementally maintained κ equals both a fresh from-scratch
//! [`triangle_kcore_decomposition`] and (optionally) the naive
//! definitional oracle [`naive_kappa`] — the "incremental ≡ recompute"
//! contract the truss-maintenance literature treats as the definition of
//! correctness.
//!
//! On a mismatch the harness does not just fail: it greedily **shrinks**
//! the reproduction — dropping initial edges and operations while the
//! failure persists — and returns a [`FailureDump`] whose `Display` output
//! is a ready-to-paste regression test.

use std::fmt;

use tkc_core::decompose::triangle_kcore_decomposition;
use tkc_core::dynamic::DynamicTriangleKCore;
use tkc_core::reference::naive_kappa;
use tkc_graph::{generators, Graph, VertexId};

use crate::certificate::KappaCertificate;
use crate::extraction::check_core_extraction;

/// One operation of a differential stream, in raw vertex ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    /// Insert edge `{u, v}` (skipped when present or `u == v`).
    Insert(u32, u32),
    /// Remove edge `{u, v}` (skipped when absent).
    Remove(u32, u32),
}

/// Initial graph shape for a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphKind {
    /// Empty graph on `n` vertices.
    Empty {
        /// Vertex count.
        n: usize,
    },
    /// Erdős–Rényi `G(n, p)`.
    Gnp {
        /// Vertex count.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Scale-free, high-clustering Holme–Kim graph.
    HolmeKim {
        /// Vertex count.
        n: usize,
        /// Attachments per newcomer.
        m: usize,
        /// Triad-formation probability.
        p: f64,
    },
    /// Dense planted communities with sparse cross links.
    PlantedPartition {
        /// Number of communities.
        groups: usize,
        /// Vertices per community.
        size: usize,
    },
    /// Ring of cliques.
    Caveman {
        /// Number of cliques.
        groups: usize,
        /// Vertices per clique.
        size: usize,
    },
}

impl GraphKind {
    /// Materializes the initial graph for a stream. Public so downstream
    /// harnesses (the engine's WAL kill-and-replay suite) can drive the
    /// exact same corpus through their own apply paths.
    pub fn build(self, seed: u64) -> Graph {
        match self {
            GraphKind::Empty { n } => {
                let mut g = Graph::new();
                g.add_vertices(n);
                g
            }
            GraphKind::Gnp { n, p } => generators::gnp(n, p, seed),
            GraphKind::HolmeKim { n, m, p } => generators::holme_kim(n, m, p, seed),
            GraphKind::PlantedPartition { groups, size } => {
                generators::planted_partition(groups, size, 0.7, 0.08, seed)
            }
            GraphKind::Caveman { groups, size } => generators::connected_caveman(groups, size),
        }
    }
}

/// Configuration for one differential op-stream case.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Initial graph shape.
    pub kind: GraphKind,
    /// Seed for both graph construction and the op stream.
    pub seed: u64,
    /// Number of operations to generate.
    pub ops: usize,
    /// Check the oracles after every `check_every` operations (and always
    /// at the end of the stream). `1` checks after every single op.
    pub check_every: usize,
    /// Also compare against the quadratic `naive_kappa` oracle and the
    /// κ-certificate checker at each checkpoint (slower; exact same
    /// verdicts — defense in depth against a bug shared by the two fast
    /// paths).
    pub deep_oracles: bool,
}

impl StreamConfig {
    /// A small-graph config with per-op checking, suitable for suites with
    /// hundreds of cases.
    pub fn quick(kind: GraphKind, seed: u64, ops: usize) -> Self {
        StreamConfig {
            kind,
            seed,
            ops,
            check_every: 1,
            deep_oracles: false,
        }
    }
}

/// Counters from a passing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Operations applied (including skipped no-ops).
    pub ops: usize,
    /// Oracle checkpoints passed.
    pub checks: usize,
    /// Edge insertions actually applied.
    pub inserted: usize,
    /// Edge removals actually applied.
    pub removed: usize,
}

/// Where a differential run diverged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Endpoints of the first disagreeing edge.
    pub edge: (u32, u32),
    /// κ maintained incrementally.
    pub dynamic: u32,
    /// κ from the from-scratch recompute.
    pub fresh: u32,
    /// Which oracle disagreed (for deep oracles: `"naive"`/`"certificate"`;
    /// for extraction: `"core-extraction"`/`"truss-table"`, see
    /// [`crate::extraction::check_core_extraction`]).
    pub oracle: &'static str,
}

/// A shrunk, reproducible counterexample. `Display` prints a
/// ready-to-paste regression test body.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureDump {
    /// Config that produced the failure.
    pub config: StreamConfig,
    /// Vertex count of the initial graph.
    pub vertices: usize,
    /// Shrunk initial edge list.
    pub initial_edges: Vec<(u32, u32)>,
    /// Shrunk operation stream.
    pub ops: Vec<StreamOp>,
    /// The disagreement at the final checkpoint.
    pub mismatch: Mismatch,
}

impl fmt::Display for FailureDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "differential failure (seed {}, oracle `{}`): edge ({}, {}) dynamic={} expected={}",
            self.config.seed,
            self.mismatch.oracle,
            self.mismatch.edge.0,
            self.mismatch.edge.1,
            self.mismatch.dynamic,
            self.mismatch.fresh,
        )?;
        writeln!(f, "shrunk reproduction:")?;
        writeln!(
            f,
            "    let g = Graph::from_edges({}, {:?});",
            self.vertices, self.initial_edges
        )?;
        writeln!(f, "    let mut d = DynamicTriangleKCore::new(g);")?;
        for op in &self.ops {
            match *op {
                StreamOp::Insert(u, v) => writeln!(
                    f,
                    "    let _ = d.insert_edge(VertexId({u}), VertexId({v}));"
                )?,
                StreamOp::Remove(u, v) => writeln!(
                    f,
                    "    let _ = d.remove_edge_between(VertexId({u}), VertexId({v}));"
                )?,
            }
        }
        writeln!(
            f,
            "    // assert κ(({}, {})) == {}",
            self.mismatch.edge.0, self.mismatch.edge.1, self.mismatch.fresh
        )
    }
}

/// A deterministic SplitMix64 op generator — self-contained so dumps can be
/// replayed without any external RNG dependency.
struct OpGen {
    state: u64,
}

impl OpGen {
    fn new(seed: u64) -> Self {
        OpGen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n.max(1))) as u32
    }
}

/// Generates the op stream for a config (pure function of the config).
pub fn generate_ops(config: &StreamConfig, n: usize) -> Vec<StreamOp> {
    let n32 = n.max(2) as u32;
    let mut gen = OpGen::new(config.seed);
    (0..config.ops)
        .map(|_| {
            let u = gen.below(n32);
            let v = gen.below(n32);
            if gen.next_u64() & 1 == 0 {
                StreamOp::Insert(u, v)
            } else {
                StreamOp::Remove(u, v)
            }
        })
        .collect()
}

fn apply_op(d: &mut DynamicTriangleKCore, op: StreamOp, stats: &mut StreamStats) {
    match op {
        StreamOp::Insert(u, v) => {
            let (u, v) = (VertexId(u), VertexId(v));
            if u != v && !d.graph().has_edge(u, v) && d.insert_edge(u, v).is_ok() {
                stats.inserted += 1;
            }
        }
        StreamOp::Remove(u, v) => {
            if d.remove_edge_between(VertexId(u), VertexId(v)).is_ok() {
                stats.removed += 1;
            }
        }
    }
}

/// Cross-checks the triangle support kernels on `g`: the sequential
/// mutable-adjacency path (`triangles::edge_supports`) against the oriented
/// CSR snapshot kernel, sequential and parallel. The contract is
/// **bit-identical vectors** — supports are exact integer counts, so any
/// divergence is a kernel bug (orientation, dead-slot handling, chunk
/// boundaries), not accumulation noise.
pub fn check_support_kernels(g: &Graph) -> Result<(), Mismatch> {
    let hash = tkc_graph::triangles::edge_supports(g);
    let snapshot = std::sync::Arc::new(tkc_graph::csr::CsrGraph::freeze(g));
    for (candidate, oracle) in [
        (snapshot.edge_supports(), "csr-support"),
        (snapshot.edge_supports_parallel(2), "csr-support-parallel"),
    ] {
        if let Some(i) = (0..hash.len()).find(|&i| candidate[i] != hash[i]) {
            let edge = g
                .endpoints_checked(tkc_graph::EdgeId::from(i))
                .map(|(u, v)| (u.0, v.0))
                .unwrap_or((u32::MAX, u32::MAX));
            return Err(Mismatch {
                edge,
                dynamic: candidate[i],
                fresh: hash[i],
                oracle,
            });
        }
    }
    Ok(())
}

/// Cross-checks the production level-synchronous peel against the
/// bucket-peel oracle ([`crate::bucket`]): the production entry point and
/// the forced peel at 1, 2, 4 and 8 chunks under both triangle lookups
/// must reproduce the oracle's κ vector and max κ bit-for-bit.
pub fn check_parallel_peel(g: &Graph) -> Result<(), Mismatch> {
    use tkc_core::peel_parallel::{level_sync_forced, TriangleLookup};
    let oracle = crate::bucket::kappa(g);
    let oracle_max = g.edge_ids().map(|e| oracle[e.index()]).max().unwrap_or(0);
    let mut runs = vec![("production-peel", triangle_kcore_decomposition(g))];
    for (lookup, name) in [
        (TriangleLookup::Stored, "parallel-peel-stored"),
        (TriangleLookup::Merge, "parallel-peel-merge"),
    ] {
        for chunks in [1usize, 2, 4, 8] {
            runs.push((name, level_sync_forced(g, chunks, lookup)));
        }
    }
    for (oracle_name, run) in runs {
        if let Some(e) = g.edge_ids().find(|&e| run.kappa(e) != oracle[e.index()]) {
            let (u, v) = g.endpoints(e);
            return Err(Mismatch {
                edge: (u.0, v.0),
                dynamic: run.kappa(e),
                fresh: oracle[e.index()],
                oracle: oracle_name,
            });
        }
        if run.max_kappa() != oracle_max {
            return Err(Mismatch {
                edge: (u32::MAX, u32::MAX),
                dynamic: run.max_kappa(),
                fresh: oracle_max,
                oracle: oracle_name,
            });
        }
    }
    Ok(())
}

/// Cross-checks the out-of-core stratum peel against the in-memory
/// bucket peel: packs `g` into a throwaway `TKCSTOR` file, runs
/// [`tkc_core::ooc::decompose_ooc`] under a deliberately tight budget,
/// and requires the κ vector to be **bit-identical** per raw edge slot
/// (dead slots included, as 0). Harness I/O failures panic — they are
/// environment problems, not κ divergences.
pub fn check_ooc_decompose(g: &Graph) -> Result<(), Mismatch> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);

    let supports = tkc_graph::triangles::edge_supports(g);
    let seq = crate::bucket::peel(g, supports.clone());
    let seq_max = g.edge_ids().map(|e| seq[e.index()]).max().unwrap_or(0);
    let parts = tkc_store::pack_graph(g, &supports, None).expect("pack for ooc differential");
    let dir = std::env::temp_dir().join("tkc_verify_ooc");
    std::fs::create_dir_all(&dir).expect("ooc differential temp dir");
    let path = dir.join(format!(
        "diff_{}_{}.tkcstor",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    parts
        .write_path(&path)
        .expect("write ooc differential store");
    let config = tkc_core::ooc::OocConfig::with_budget(256 * 1024);
    let result = tkc_core::ooc::decompose_ooc(&path, &config);
    std::fs::remove_file(&path).ok();
    let ooc = result.expect("ooc peel failed on differential graph");

    for e in g.edge_ids() {
        let got = ooc.kappa.get(e.index()).copied().unwrap_or(u32::MAX);
        if got != seq[e.index()] {
            let (u, v) = g.endpoints(e);
            return Err(Mismatch {
                edge: (u.0, v.0),
                dynamic: got,
                fresh: seq[e.index()],
                oracle: "ooc-peel",
            });
        }
    }
    if ooc.max_kappa != seq_max {
        return Err(Mismatch {
            edge: (u32::MAX, u32::MAX),
            dynamic: ooc.max_kappa,
            fresh: seq_max,
            oracle: "ooc-peel",
        });
    }
    Ok(())
}

/// Compares a claimed κ vector (raw-edge-id indexed) against a fresh
/// from-scratch recompute of `g` — the "incremental ≡ recompute" oracle as
/// a standalone check, reusable by any layer that maintains or restores κ
/// (the dynamic maintainer here, WAL recovery in the engine).
pub fn kappa_matches_recompute(g: &Graph, kappa: &[u32]) -> Result<(), Mismatch> {
    let fresh = triangle_kcore_decomposition(g);
    for e in g.edge_ids() {
        let claimed = kappa.get(e.index()).copied().unwrap_or(0);
        if claimed != fresh.kappa(e) {
            let (u, v) = g.endpoints(e);
            return Err(Mismatch {
                edge: (u.0, v.0),
                dynamic: claimed,
                fresh: fresh.kappa(e),
                oracle: "recompute",
            });
        }
    }
    Ok(())
}

/// A 64-bit order-independent-input digest of a decomposition: FNV-1a
/// over every `(u, v, κ)` triple in sorted-endpoint order, prefixed with
/// the vertex/edge counts. Two replicas with identical graphs and κ
/// vectors produce identical stamps regardless of edge-id assignment
/// history — the replication divergence probe compares exactly this.
pub fn kappa_stamp(g: &Graph, kappa: &[u32]) -> u64 {
    let mut triples: Vec<(u32, u32, u32)> = g
        .edge_ids()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            let (lo, hi) = if u.0 <= v.0 { (u.0, v.0) } else { (v.0, u.0) };
            (lo, hi, kappa.get(e.index()).copied().unwrap_or(0))
        })
        .collect();
    triples.sort_unstable();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(g.num_vertices() as u32);
    eat(triples.len() as u32);
    for (u, v, k) in triples {
        eat(u);
        eat(v);
        eat(k);
    }
    h
}

/// Checks the maintained κ against the oracles; `Err` on first divergence.
fn check_oracles(d: &DynamicTriangleKCore, deep: bool) -> Result<(), Mismatch> {
    check_support_kernels(d.graph())?;
    check_parallel_peel(d.graph())?;
    kappa_matches_recompute(d.graph(), d.kappa_slice())?;
    check_core_extraction(d.graph(), d.kappa_slice())?;
    if deep {
        let naive = naive_kappa(d.graph());
        for e in d.graph().edge_ids() {
            if d.kappa(e) != naive[e.index()] {
                let (u, v) = d.graph().endpoints(e);
                return Err(Mismatch {
                    edge: (u.0, v.0),
                    dynamic: d.kappa(e),
                    fresh: naive[e.index()],
                    oracle: "naive",
                });
            }
        }
        if let Err(report) = KappaCertificate::new(d.graph(), d.kappa_slice()).check() {
            let (edge, dynamic, fresh) = match report.violations.first() {
                Some(crate::certificate::Violation::InsufficientSupport {
                    endpoints: (u, v),
                    kappa,
                    support,
                    ..
                }) => ((u.0, v.0), *kappa, *support),
                Some(crate::certificate::Violation::NotMaximal {
                    endpoints: (u, v),
                    claimed,
                    actual,
                    ..
                }) => ((u.0, v.0), *claimed, *actual),
                _ => ((u32::MAX, u32::MAX), 0, 0),
            };
            return Err(Mismatch {
                edge,
                dynamic,
                fresh,
                oracle: "certificate",
            });
        }
    }
    Ok(())
}

/// Replays an explicit reproduction; `Err` with the first divergence.
/// Checks after every op (shrinking wants the tightest signal).
fn replay(
    vertices: usize,
    initial_edges: &[(u32, u32)],
    ops: &[StreamOp],
    deep: bool,
) -> Result<(), Mismatch> {
    let g = Graph::from_edges(vertices, initial_edges.iter().copied());
    let mut d = DynamicTriangleKCore::new(g);
    let mut stats = StreamStats::default();
    check_oracles(&d, deep)?;
    for &op in ops {
        apply_op(&mut d, op, &mut stats);
        check_oracles(&d, deep)?;
    }
    Ok(())
}

/// Runs one differential stream. `Ok` with counters when every checkpoint
/// agrees; `Err` with a shrunk reproduction otherwise.
pub fn run_stream(config: &StreamConfig) -> Result<StreamStats, Box<FailureDump>> {
    let g = config.kind.build(config.seed);
    let vertices = g.num_vertices();
    let initial_edges: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
    let ops = generate_ops(config, vertices);
    let every = config.check_every.max(1);

    let mut d = DynamicTriangleKCore::new(g);
    let mut stats = StreamStats::default();
    let mut failure: Option<(usize, Mismatch)> = None;
    for (i, &op) in ops.iter().enumerate() {
        apply_op(&mut d, op, &mut stats);
        stats.ops += 1;
        if (i + 1) % every == 0 || i + 1 == ops.len() {
            match check_oracles(&d, config.deep_oracles) {
                Ok(()) => stats.checks += 1,
                Err(m) => {
                    failure = Some((i, m));
                    break;
                }
            }
        }
    }
    let Some((fail_at, mismatch)) = failure else {
        return Ok(stats);
    };
    let ops_prefix = ops[..=fail_at].to_vec();
    let (initial_edges, ops_shrunk) =
        shrink(vertices, initial_edges, ops_prefix, config.deep_oracles);
    Err(Box::new(FailureDump {
        config: config.clone(),
        vertices,
        initial_edges,
        ops: ops_shrunk,
        mismatch,
    }))
}

/// Greedy delta-debugging shrink: repeatedly try dropping each op and each
/// initial edge, keeping any removal under which the replay still fails.
/// Bounded passes keep worst-case work predictable.
fn shrink(
    vertices: usize,
    mut initial_edges: Vec<(u32, u32)>,
    mut ops: Vec<StreamOp>,
    deep: bool,
) -> (Vec<(u32, u32)>, Vec<StreamOp>) {
    debug_assert!(replay(vertices, &initial_edges, &ops, deep).is_err());
    for _pass in 0..4 {
        let mut changed = false;
        // Drop ops from the back so indices stay valid during retain.
        let mut i = ops.len();
        while i > 0 {
            i -= 1;
            let mut candidate = ops.clone();
            candidate.remove(i);
            if replay(vertices, &initial_edges, &candidate, deep).is_err() {
                ops = candidate;
                changed = true;
            }
        }
        let mut j = initial_edges.len();
        while j > 0 {
            j -= 1;
            let mut candidate = initial_edges.clone();
            candidate.remove(j);
            if replay(vertices, &candidate, &ops, deep).is_err() {
                initial_edges = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (initial_edges, ops)
}

/// The default CI suite: a mix of generator graphs and stream shapes,
/// `cases` streams total. Small graphs with per-op checks, so hundreds of
/// cases run in seconds.
pub fn default_suite(cases: usize) -> Vec<StreamConfig> {
    let kinds = [
        GraphKind::Empty { n: 10 },
        GraphKind::Gnp { n: 12, p: 0.18 },
        GraphKind::Gnp { n: 9, p: 0.35 },
        GraphKind::HolmeKim {
            n: 14,
            m: 2,
            p: 0.7,
        },
        GraphKind::PlantedPartition { groups: 2, size: 6 },
        GraphKind::Caveman { groups: 3, size: 4 },
    ];
    (0..cases)
        .map(|i| {
            let kind = kinds[i % kinds.len()];
            let mut config = StreamConfig::quick(kind, 0xD1F7 + i as u64, 30);
            // Every sixth case runs the deep oracles too.
            config.deep_oracles = i % 6 == 0;
            config
        })
        .collect()
}

/// Runs a whole suite, returning aggregate stats or the first failure.
pub fn run_suite(configs: &[StreamConfig]) -> Result<StreamStats, Box<FailureDump>> {
    let mut total = StreamStats::default();
    for config in configs {
        let stats = run_stream(config)?;
        total.ops += stats.ops;
        total.checks += stats.checks;
        total.inserted += stats.inserted;
        total.removed += stats.removed;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn kappa_stamp_is_insertion_order_independent() {
        let mut a = Graph::new();
        let mut b = Graph::new();
        for g in [&mut a, &mut b] {
            g.add_vertices(4);
        }
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)];
        for &(u, v) in &edges {
            a.add_edge(VertexId(u), VertexId(v)).unwrap();
        }
        for &(u, v) in edges.iter().rev() {
            b.add_edge(VertexId(u), VertexId(v)).unwrap();
        }
        let da = triangle_kcore_decomposition(&a);
        let db = triangle_kcore_decomposition(&b);
        assert_eq!(
            kappa_stamp(&a, da.kappa_slice()),
            kappa_stamp(&b, db.kappa_slice())
        );
        // Perturbing one κ value must move the stamp.
        let mut bad = da.kappa_slice().to_vec();
        bad[0] += 1;
        assert_ne!(kappa_stamp(&a, da.kappa_slice()), kappa_stamp(&a, &bad));
    }

    #[test]
    fn single_stream_passes_on_every_kind() {
        for kind in [
            GraphKind::Empty { n: 8 },
            GraphKind::Gnp { n: 10, p: 0.25 },
            GraphKind::HolmeKim {
                n: 12,
                m: 2,
                p: 0.5,
            },
            GraphKind::PlantedPartition { groups: 2, size: 5 },
            GraphKind::Caveman { groups: 2, size: 4 },
        ] {
            let mut config = StreamConfig::quick(kind, 7, 25);
            config.deep_oracles = true;
            let stats = run_stream(&config).unwrap_or_else(|dump| panic!("{dump}"));
            assert_eq!(stats.ops, 25);
            assert!(stats.checks > 0);
        }
    }

    #[test]
    fn support_kernels_agree_across_the_corpus() {
        // The acceptance contract of the CSR kernel: bit-identical support
        // vectors on every differential-suite graph shape, live and after
        // churn (dead slots included).
        for kind in [
            GraphKind::Empty { n: 8 },
            GraphKind::Gnp { n: 12, p: 0.3 },
            GraphKind::HolmeKim {
                n: 14,
                m: 2,
                p: 0.7,
            },
            GraphKind::PlantedPartition { groups: 2, size: 6 },
            GraphKind::Caveman { groups: 3, size: 4 },
        ] {
            for seed in 0..4 {
                let mut g = kind.build(seed);
                check_support_kernels(&g).unwrap_or_else(|m| panic!("{m:?}"));
                let victims: Vec<_> = g.edge_ids().step_by(3).collect();
                for e in victims {
                    g.remove_edge(e).unwrap();
                }
                check_support_kernels(&g).unwrap_or_else(|m| panic!("{m:?}"));
            }
        }
    }

    #[test]
    fn op_generation_is_deterministic() {
        let config = StreamConfig::quick(GraphKind::Empty { n: 10 }, 99, 40);
        assert_eq!(generate_ops(&config, 10), generate_ops(&config, 10));
    }

    #[test]
    fn shrinker_produces_minimal_failing_reproduction() {
        // Sabotage: replay a stream against a deliberately broken "dynamic"
        // result by corrupting κ — the shrinker contract is exercised
        // through the public API in `tests/differential.rs`; here we check
        // the internal replay helper agrees with itself.
        let config = StreamConfig::quick(GraphKind::Gnp { n: 10, p: 0.3 }, 3, 20);
        let g = config.kind.build(config.seed);
        let edges: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let ops = generate_ops(&config, g.num_vertices());
        assert!(replay(g.num_vertices(), &edges, &ops, false).is_ok());
    }
}
