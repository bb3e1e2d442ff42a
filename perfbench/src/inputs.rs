//! Inputs derived from the seed: the streamed graph, the harness's own
//! decomposition of it (the correctness reference), the state directory
//! handed to `tkc serve`, and the request plans.

use std::collections::HashSet;
use std::path::Path;

use tkc_core::decompose::Decomposition;
use tkc_datasets::StreamedConfig;
use tkc_graph::{Graph, VertexId};

use crate::util::{pair_key, Rng};

/// The streamed graph at `scale` × the bench vertex count.
pub fn config(seed: u64, scale: f64) -> StreamedConfig {
    let mut cfg = StreamedConfig::bench(seed);
    let scaled = (f64::from(cfg.vertices) * scale) as u32;
    cfg.vertices = scaled.max(2 * cfg.max_ring() + 2);
    cfg
}

/// The graph plus the harness's reference decomposition.
pub struct Base {
    pub g: Graph,
    pub d: Decomposition,
    /// Live edges as endpoint pairs, in edge-id order.
    pub edges: Vec<(u32, u32)>,
}

impl Base {
    pub fn build(seed: u64, scale: f64) -> Base {
        let cfg = config(seed, scale);
        let g = tkc_datasets::streamed::build_graph(&cfg);
        let d = Decomposition::compute_with(&g, 1);
        let edges = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        Base { g, d, edges }
    }

    pub fn kappa(&self, u: u32, v: u32) -> Option<u32> {
        self.g
            .edge_between(VertexId(u), VertexId(v))
            .map(|e| self.d.kappa(e))
    }

    pub fn max_kappa(&self) -> u32 {
        self.d.max_kappa()
    }

    /// Writes an engine state directory (`state.tkc`: graph + κ) for
    /// `tkc store pack <dir>` and `tkc serve <dir>`.
    pub fn write_state_dir(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(tkc_engine::STATE_FILE);
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        tkc_core::persist::write_state(&self.g, self.d.kappa_slice(), file)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// `n` vertex pairs that are not edges.
    pub fn absent_pairs(&self, rng: &mut Rng, n: usize) -> Vec<(u32, u32)> {
        let nv = self.g.num_vertices();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let (u, v) = (rng.below(nv) as u32, rng.below(nv) as u32);
            if u != v && !self.g.has_edge(VertexId(u), VertexId(v)) {
                out.push((u, v));
            }
        }
        out
    }

    /// A wedge-closing non-edge `(a, c)` with `a–b–c` a path, if one is
    /// found in a few draws.
    fn wedge_closure(&self, rng: &mut Rng, taken: &HashSet<u64>) -> Option<(u32, u32)> {
        for _ in 0..16 {
            let (a, _) = self.edges[rng.below(self.edges.len())];
            let adj = self.g.adjacency(VertexId(a));
            let (b, _) = adj[rng.below(adj.len())];
            let adj_b = self.g.adjacency(b);
            let (c, _) = adj_b[rng.below(adj_b.len())];
            if c.0 != a && !self.g.has_edge(VertexId(a), c) && !taken.contains(&pair_key(a, c.0)) {
                return Some((a, c.0));
            }
        }
        None
    }

    fn random_non_edge(&self, rng: &mut Rng, taken: &HashSet<u64>) -> (u32, u32) {
        let nv = self.g.num_vertices();
        loop {
            let (u, v) = (rng.below(nv) as u32, rng.below(nv) as u32);
            if u != v
                && !self.g.has_edge(VertexId(u), VertexId(v))
                && !taken.contains(&pair_key(u, v))
            {
                return (u, v);
            }
        }
    }
}

/// One mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert(u32, u32),
    Remove(u32, u32),
}

impl Op {
    pub fn wire(self) -> String {
        match self {
            Op::Insert(u, v) => format!("INSERT {u} {v}"),
            Op::Remove(u, v) => format!("REMOVE {u} {v}"),
        }
    }

    pub fn batch_line(self) -> String {
        match self {
            Op::Insert(u, v) => format!("+ {u} {v}"),
            Op::Remove(u, v) => format!("- {u} {v}"),
        }
    }

    pub fn pair(self) -> (u32, u32) {
        match self {
            Op::Insert(u, v) | Op::Remove(u, v) => (u, v),
        }
    }
}

/// The churn workload's writes, fixed by the seed.
///
/// Inserts are distinct non-edges of the base graph; half of them close a
/// wedge, so the maintainer does real triangle work. Removes are distinct
/// base edges, so each may start a demotion cascade through the dense
/// strata. Inserts and removes alternate, so the live edge count stays
/// within one edge of the base count. Every op touches its own pair, so
/// the final graph is the same whatever order the two connections'
/// batches interleave in.
pub struct ChurnPlan {
    pub open_loop: Vec<Op>,
    pub batches: Vec<Vec<Op>>,
    /// Base edges no op touches: reads of these must answer `OK <κ>`.
    pub stable: Vec<(u32, u32)>,
    /// Every pair inserted.
    inserted: HashSet<u64>,
    /// Base edges removed.
    removed: HashSet<u64>,
}

impl ChurnPlan {
    pub fn build(
        base: &Base,
        seed: u64,
        open_loop_ops: usize,
        batches: usize,
        batch_ops: usize,
    ) -> ChurnPlan {
        let mut rng = Rng::fork(seed, 2);
        let mut victims = Victims::new(base.edges.len());
        let mut plan = ChurnPlan {
            open_loop: Vec::with_capacity(open_loop_ops),
            batches: Vec::with_capacity(batches),
            stable: Vec::new(),
            inserted: HashSet::new(),
            removed: HashSet::new(),
        };
        for i in 0..open_loop_ops {
            let op = if i % 2 == 0 {
                plan.fresh(base, &mut rng)
            } else {
                plan.victim(base, &mut victims, &mut rng)
            };
            plan.open_loop.push(op);
        }
        for _ in 0..batches {
            let ops = (0..batch_ops)
                .map(|j| {
                    if j % 2 == 0 {
                        plan.fresh(base, &mut rng)
                    } else {
                        plan.victim(base, &mut victims, &mut rng)
                    }
                })
                .collect();
            plan.batches.push(ops);
        }
        plan.stable = (0..4096)
            .map(|_| base.edges[rng.below(base.edges.len())])
            .filter(|&(u, v)| !plan.removed.contains(&pair_key(u, v)))
            .collect();
        plan
    }

    /// A new non-edge insert; every other one closes a wedge.
    fn fresh(&mut self, base: &Base, rng: &mut Rng) -> Op {
        let wedge = self.inserted.len().is_multiple_of(2);
        let (u, v) = wedge
            .then(|| base.wedge_closure(rng, &self.inserted))
            .flatten()
            .unwrap_or_else(|| base.random_non_edge(rng, &self.inserted));
        self.inserted.insert(pair_key(u, v));
        Op::Insert(u, v)
    }

    /// Removal of a base edge not removed before.
    fn victim(&mut self, base: &Base, victims: &mut Victims, rng: &mut Rng) -> Op {
        let (u, v) = base.edges[victims.next(rng)];
        self.removed.insert(pair_key(u, v));
        Op::Remove(u, v)
    }

    pub fn batch_ops(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Whether `{u, v}` belongs to the graph once every op is applied.
    pub fn expected(&self, base: &Base, u: u32, v: u32) -> bool {
        let key = pair_key(u, v);
        self.inserted.contains(&key)
            || (!self.removed.contains(&key) && base.g.has_edge(VertexId(u), VertexId(v)))
    }

    /// Edge count once every op is applied.
    pub fn expected_edges(&self, base: &Base) -> usize {
        base.g.num_edges() + self.inserted.len() - self.removed.len()
    }
}

/// Base edge indices drawn without replacement (a lazy Fisher–Yates).
struct Victims {
    order: Vec<usize>,
    taken: usize,
}

impl Victims {
    fn new(n: usize) -> Victims {
        Victims {
            order: (0..n).collect(),
            taken: 0,
        }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        let i = self.taken;
        let j = i + rng.below(self.order.len() - i);
        self.order.swap(i, j);
        self.taken += 1;
        self.order[i]
    }
}
