//! The `tkc` subcommands.

use tkc_core::decompose::{
    triangle_kcore_decomposition, triangle_kcore_decomposition_timed, Decomposition,
};
use tkc_core::dynamic::{BatchOp, DynamicTriangleKCore};
use tkc_core::extract::densest_cliques;
use tkc_graph::{io, Graph, VertexId};
use tkc_patterns::{detect_template, AttributedGraph, Template};
use tkc_viz::ordering::kappa_density_plot;
use tkc_viz::plot::{ascii_sparkline, density_plot_tsv, render_density_plot, PlotStyle};

use crate::args::parse;

/// Usage text printed on errors.
pub const USAGE: &str = "usage:
  tkc decompose <edges.txt> [--top K] [--threads N] [--timings]
  tkc plot      <edges.txt> [--svg out.svg] [--tsv out.tsv] [--width N]
  tkc cliques   <edges.txt> [--top K]
  tkc update    <edges.txt> --ops <ops.txt> [--verify]
  tkc patterns  <old.txt> <new.txt> --template new-form|bridge|new-join [--top K]
                (or: <edges.txt> --labels <labels.txt> for the static variant)
  tkc events    <old.txt> <new.txt> [--level K]
  tkc dual-view <old.txt> <new.txt> [--svg out.svg] [--top K]
  tkc stats     <edges.txt> [--svg hist.svg] [--tsv dist.tsv]
  tkc community <edges.txt> <vertex> [--level K]
  tkc dataset   <name> [--scale F] [--seed S] [--out file]
                (name `streamed`: block-streamed ~150k-vertex/~1.3M-edge
                 synthetic, written as SNAP lines without materializing)
  tkc store     pack <edges.txt | state-dir> [--out file.tkcstor]
  tkc store     info <file.tkcstor>
  tkc store     decompose <file.tkcstor> [--budget N[k|m|g]]
  tkc verify    <edges.txt> [--ops <ops.txt>] [--threads N]
  tkc verify    --suite [--cases N]
  tkc serve     <state-dir> [--addr host:port] [--epoch-ops N]
                [--compact-bytes N] [--idle-timeout-ms N]
                [--max-conns N] [--max-line-bytes N]
                [--request-budget N]
                [--recover-backoff-ms N] [--no-fsync]
                [--failpoint site=kind@trigger[xN],...]
                [--repl-addr host:port | --follow host:port]
                [--metrics-addr host:port] [--trace-out file.jsonl]
                [--trace-cap N] [--slow-op-ms N] [--slo SPEC]
  tkc obs       report [--trace file.jsonl] [--metrics-url host:port]
                [--top N]
  tkc chaos     [--seeds N] [--start-seed S] [--dir root] [--repl]
  tkc analyze   [--root dir] [--policy analyze.toml] [--format text|json]

(--threads 0 = all cores; Algorithm 1's support pass and peel rounds run
 on the wedge-balanced worker pool, with the same κ at every thread
 count; TKC_LOG=error|warn|info|debug tunes diagnostics on stderr)

serve speaks a line protocol on --addr (default 127.0.0.1:7007):
  KAPPA u v | MAXK | TRUSS k | INSERT u v | REMOVE u v | BATCH n
  STATS | METRICS | SLO | TRACE n | HEALTH | PROMOTE | EPOCH | PING
  QUIT | SHUTDOWN

--metrics-addr additionally serves Prometheus text at GET /metrics;
--trace-out enables request spans (the last --trace-cap spans are kept,
default 4096) and writes them as JSONL on shutdown; --slow-op-ms logs
any request slower than N ms with its full span tree; --slo arms
per-verb latency objectives (SPEC is `VERB=ms[@objective],...`, e.g.
`INSERT=5,KAPPA=0.5@0.999`) reported by the SLO verb and tkc_slo_*
gauges; `tkc obs report` renders a trace JSONL and/or a /metrics scrape
as a human-readable snapshot

--failpoint arms deterministic fault injection on the WAL and the
replication link (sites wal.open|wal.append|wal.fsync|wal.truncate|
repl.connect|repl.send|repl.recv; kinds short|enospc|eio|bitflip|crash|
stall), e.g. wal.append=enospc@100 — a failed append degrades the
server to read-only serving (writes answer ERR DEGRADED) until the
recovery supervisor brings it back; HEALTH and /metrics expose the state

--repl-addr starts WAL-shipping replication: followers started with
--follow <that addr> stream the primary's log, serve reads, and answer
writes with ERR READONLY <primary>; PROMOTE on a follower fences the
old primary and makes the follower writable at a higher term

chaos replays seeded fault schedules (graph, ops, and failures all
derived from the seed) through a real engine and fails on any panic,
κ divergence from recompute, or durability loss across reopen; with
--repl it runs primary/follower pairs under link faults and node
kill/restarts instead, requiring follower κ ≡ primary κ ≡ recompute
after every convergence";

/// Dispatches a full argv (without the program name).
pub fn run(argv: &[String]) -> Result<(), String> {
    let p = parse(
        argv,
        &[
            "top",
            "svg",
            "tsv",
            "width",
            "ops",
            "template",
            "scale",
            "seed",
            "out",
            "level",
            "labels",
            "cases",
            "threads",
            "addr",
            "epoch-ops",
            "compact-bytes",
            "read-timeout-ms",
            "idle-timeout-ms",
            "max-conns",
            "max-line-bytes",
            "request-budget",
            "recover-backoff-ms",
            "failpoint",
            "repl-addr",
            "follow",
            "metrics-addr",
            "trace-out",
            "trace-cap",
            "slow-op-ms",
            "slo",
            "trace",
            "metrics-url",
            "seeds",
            "start-seed",
            "dir",
            "root",
            "policy",
            "format",
            "budget",
        ],
        &["timings", "verify", "suite", "no-fsync", "repl"],
    )?;
    match p.positional(0, "subcommand")? {
        "decompose" => decompose(&p),
        "plot" => plot(&p),
        "cliques" => cliques(&p),
        "update" => update(&p),
        "patterns" => patterns(&p),
        "events" => events(&p),
        "dual-view" => dual_view_cmd(&p),
        "stats" => stats(&p),
        "community" => community(&p),
        "dataset" => dataset(&p),
        "store" => store(&p),
        "verify" => verify(&p),
        "serve" => serve(&p),
        "obs" => obs(&p),
        "chaos" => chaos(&p),
        "analyze" => analyze(&p),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn load(path: &str) -> Result<Graph, String> {
    io::load_edge_list(path).map_err(|e| format!("{path}: {e}"))
}

fn summarize(g: &Graph, d: &Decomposition) {
    println!(
        "{} vertices, {} edges, max κ = {} (≈ {}-clique structure)",
        g.num_vertices(),
        g.num_edges(),
        d.max_kappa(),
        d.max_kappa() + 2
    );
    print_histogram(d);
}

fn print_histogram(d: &Decomposition) {
    println!("κ histogram:");
    for (k, count) in d.histogram().iter().enumerate() {
        if *count > 0 {
            println!("  κ = {k:>3}: {count}");
        }
    }
}

fn decompose(p: &crate::args::Parsed) -> Result<(), String> {
    let g = load(p.positional(1, "edge list path")?)?;
    let threads: usize = p.flag_parse("threads", 1)?;
    let d = if p.switch("timings") {
        let (d, t) = triangle_kcore_decomposition_timed(&g, threads);
        println!(
            "phase timings: freeze {:?}, supports {:?}, peel {:?} (total {:?})",
            t.freeze,
            t.supports,
            t.peel,
            t.total()
        );
        d
    } else {
        Decomposition::compute_with(&g, threads)
    };
    summarize(&g, &d);
    let top: usize = p.flag_parse("top", 0)?;
    if top > 0 {
        let mut edges: Vec<_> = g.edge_ids().collect();
        edges.sort_by_key(|&e| std::cmp::Reverse(d.kappa(e)));
        println!("densest edges:");
        for &e in edges.iter().take(top) {
            let (u, v) = g.endpoints(e);
            println!("  ({u}, {v})  κ = {}", d.kappa(e));
        }
    }
    Ok(())
}

fn plot(p: &crate::args::Parsed) -> Result<(), String> {
    let g = load(p.positional(1, "edge list path")?)?;
    let d = triangle_kcore_decomposition(&g);
    let plot = kappa_density_plot(&g, &d);
    let width: usize = p.flag_parse("width", 80usize)?;
    println!("{}", ascii_sparkline(&plot, width));
    if let Some(path) = p.flag("svg") {
        let svg = render_density_plot(
            &plot,
            &PlotStyle {
                title: format!("Triangle K-Core density ({} vertices)", plot.len()),
                ..PlotStyle::default()
            },
        );
        std::fs::write(path, svg).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if let Some(path) = p.flag("tsv") {
        std::fs::write(path, density_plot_tsv(&plot)).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cliques(p: &crate::args::Parsed) -> Result<(), String> {
    let g = load(p.positional(1, "edge list path")?)?;
    let d = triangle_kcore_decomposition(&g);
    let top: usize = p.flag_parse("top", 5usize)?;
    let found = densest_cliques(&g, &d, top);
    if found.is_empty() {
        println!("no exact cliques of size ≥ 3 found");
        return Ok(());
    }
    for c in found.iter().take(top) {
        println!(
            "{}-clique at level {}: {:?}",
            c.vertices.len(),
            c.level,
            c.vertices.iter().map(|v| v.0).collect::<Vec<_>>()
        );
    }
    Ok(())
}

/// Parses an ops file: `+ u v` inserts, `- u v` deletes.
pub fn parse_ops(text: &str) -> Result<Vec<BatchOp>, String> {
    let mut ops = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let (sign, u, v) = (parts.next(), parts.next(), parts.next());
        let parse_v = |s: Option<&str>| -> Result<VertexId, String> {
            s.and_then(|x| x.parse::<u32>().ok())
                .map(VertexId)
                .ok_or_else(|| format!("ops line {}: bad vertex", lineno + 1))
        };
        match sign {
            Some("+") => ops.push(BatchOp::Insert(parse_v(u)?, parse_v(v)?)),
            Some("-") => ops.push(BatchOp::Remove(parse_v(u)?, parse_v(v)?)),
            _ => {
                return Err(format!(
                    "ops line {}: expected '+ u v' or '- u v'",
                    lineno + 1
                ))
            }
        }
    }
    Ok(ops)
}

fn update(p: &crate::args::Parsed) -> Result<(), String> {
    let g = load(p.positional(1, "edge list path")?)?;
    let ops_path = p.flag("ops").ok_or("update requires --ops <file>")?;
    let text = std::fs::read_to_string(ops_path).map_err(|e| format!("{ops_path}: {e}"))?;
    let ops = parse_ops(&text)?;

    let mut m = DynamicTriangleKCore::new(g);
    // Grow the vertex set if ops reference unseen ids.
    let max_v = ops
        .iter()
        .map(|op| match op {
            BatchOp::Insert(u, v) | BatchOp::Remove(u, v) => u.0.max(v.0),
        })
        .max()
        .unwrap_or(0) as usize;
    if max_v >= m.graph().num_vertices() {
        m.add_vertices(max_v + 1 - m.graph().num_vertices());
    }
    let start = std::time::Instant::now();
    let (ins, del) = m.apply_batch(ops);
    let took = start.elapsed();
    println!("applied {ins} insertions and {del} deletions in {took:?}");
    let stats = m.stats();
    println!(
        "{} promotions, {} demotions, {} edges examined",
        stats.promotions, stats.demotions, stats.edges_examined
    );
    if p.switch("verify") {
        let fresh = triangle_kcore_decomposition(m.graph());
        let ok = m.graph().edge_ids().all(|e| m.kappa(e) == fresh.kappa(e));
        println!(
            "verification against recompute: {}",
            if ok { "OK" } else { "MISMATCH" }
        );
        if !ok {
            return Err("maintained κ diverged from recompute".into());
        }
    }
    let (g, kappa) = m.into_parts();
    print_histogram(&Decomposition::from_kappa(&g, kappa));
    Ok(())
}

/// Parses a vertex-label file: one `vertex label` pair per line (`#`
/// comments allowed); labels default to 0 for unlisted vertices.
fn parse_labels(text: &str, n: usize) -> Result<Vec<u32>, String> {
    let mut labels = vec![0u32; n];
    for (lineno, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let bad = || format!("labels line {}: expected 'vertex label'", lineno + 1);
        let v: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let l: u32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        if v >= n {
            return Err(format!(
                "labels line {}: vertex {v} out of range",
                lineno + 1
            ));
        }
        labels[v] = l;
    }
    Ok(labels)
}

fn patterns(p: &crate::args::Parsed) -> Result<(), String> {
    let name = p.flag("template").ok_or("patterns requires --template")?;
    let template: Box<dyn Template> = match name {
        "new-form" => Box::new(tkc_patterns::NewFormClique),
        "bridge" => Box::new(tkc_patterns::BridgeClique),
        "new-join" => Box::new(tkc_patterns::NewJoinClique),
        other => return Err(format!("unknown template {other:?}")),
    };
    // Two modes: evolving snapshots (two edge lists) or the §VII-F static
    // labeled variant (one edge list + --labels, "new" = label-crossing).
    let ag = if let Some(label_path) = p.flag("labels") {
        let g = load(p.positional(1, "edge list path")?)?;
        let text = std::fs::read_to_string(label_path).map_err(|e| format!("{label_path}: {e}"))?;
        let labels = parse_labels(&text, g.num_vertices())?;
        AttributedGraph::from_vertex_labels(g, &labels)
    } else {
        let old = load(p.positional(1, "old edge list")?)?;
        let mut new = load(p.positional(2, "new edge list")?)?;
        if new.num_vertices() < old.num_vertices() {
            new.add_vertices(old.num_vertices() - new.num_vertices());
        }
        AttributedGraph::from_snapshots(&old, &new)
    };
    let res = detect_template(&ag, template.as_ref());
    println!(
        "{}: {} special edges over {} special vertices",
        template.name(),
        res.special_edge_count(),
        res.special_vertices.len()
    );
    let top: usize = p.flag_parse("top", 3usize)?;
    for c in res.top_structures(top) {
        println!(
            "  {} vertices at level {} ({}): {:?}",
            c.vertices.len(),
            c.level,
            if c.is_clique() {
                "exact clique"
            } else {
                "clique-like"
            },
            c.vertices.iter().map(|v| v.0).collect::<Vec<_>>()
        );
    }
    Ok(())
}

fn stats(p: &crate::args::Parsed) -> Result<(), String> {
    use tkc_core::extract::kappa_stats;
    use tkc_viz::distribution::{distribution_tsv, render_kappa_histogram};
    let g = load(p.positional(1, "edge list path")?)?;
    let d = triangle_kcore_decomposition(&g);
    let s = kappa_stats(&g, &d);
    println!("edges:                  {}", s.edges);
    println!(
        "max κ:                  {} (≈ {}-clique)",
        s.max_kappa,
        s.max_kappa + 2
    );
    println!("mean κ:                 {:.3}", s.mean_kappa);
    println!(
        "triangle-free edges:    {:.1}%",
        100.0 * s.triangle_free_fraction
    );
    println!("top-level cores:        {}", s.top_level_cores);
    let hist = d.histogram();
    if let Some(path) = p.flag("svg") {
        std::fs::write(
            path,
            render_kappa_histogram(&hist, "κ distribution", 600, 260),
        )
        .map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if let Some(path) = p.flag("tsv") {
        std::fs::write(path, distribution_tsv(&hist)).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn community(p: &crate::args::Parsed) -> Result<(), String> {
    use tkc_core::extract::communities_of_vertex;
    let g = load(p.positional(1, "edge list path")?)?;
    let v: u32 = p
        .positional(2, "query vertex id")?
        .parse()
        .map_err(|_| "query vertex must be a number".to_string())?;
    let v = VertexId(v);
    if !g.contains_vertex(v) {
        return Err(format!("vertex {v} not in graph"));
    }
    let d = triangle_kcore_decomposition(&g);
    let default_level = g
        .neighbors(v)
        .map(|(_, e)| d.kappa(e))
        .max()
        .unwrap_or(0)
        .max(1);
    let level: u32 = p.flag_parse("level", default_level)?;
    let comms = communities_of_vertex(&g, &d, v, level);
    if comms.is_empty() {
        println!("vertex {v} is in no Triangle {level}-Core community");
        return Ok(());
    }
    for (i, c) in comms.iter().enumerate() {
        println!(
            "community {} at level {level}: {} vertices, {} edges{}",
            i + 1,
            c.vertices.len(),
            c.edges.len(),
            if c.is_clique() { " (exact clique)" } else { "" }
        );
        if c.vertices.len() <= 30 {
            println!("  {:?}", c.vertices.iter().map(|x| x.0).collect::<Vec<_>>());
        }
    }
    Ok(())
}

fn events(p: &crate::args::Parsed) -> Result<(), String> {
    use tkc_patterns::events::{detect_events, Event, EventOptions};
    let old = load(p.positional(1, "old edge list")?)?;
    let new = load(p.positional(2, "new edge list")?)?;
    let level: u32 = p.flag_parse("level", 2u32)?;
    let rep = detect_events(&old, &new, level, &EventOptions::default());
    println!(
        "level-{level} cores: {} before, {} after",
        rep.old_cores.len(),
        rep.new_cores.len()
    );
    let size = |cores: &[tkc_core::extract::Core], i: usize| cores[i].vertices.len();
    for ev in &rep.events {
        match ev {
            Event::Continue {
                before,
                after,
                jaccard,
            } => println!(
                "  CONTINUE  {}v → {}v (jaccard {jaccard:.2})",
                size(&rep.old_cores, *before),
                size(&rep.new_cores, *after)
            ),
            Event::Grow {
                before,
                after,
                gained,
            } => println!(
                "  GROW      {}v → {}v (+{gained})",
                size(&rep.old_cores, *before),
                size(&rep.new_cores, *after)
            ),
            Event::Shrink {
                before,
                after,
                lost,
            } => println!(
                "  SHRINK    {}v → {}v (-{lost})",
                size(&rep.old_cores, *before),
                size(&rep.new_cores, *after)
            ),
            Event::Merge { before, after } => println!(
                "  MERGE     {} cores → {}v",
                before.len(),
                size(&rep.new_cores, *after)
            ),
            Event::Split { before, after } => println!(
                "  SPLIT     {}v → {} cores",
                size(&rep.old_cores, *before),
                after.len()
            ),
            Event::Form { after } => println!("  FORM      → {}v", size(&rep.new_cores, *after)),
            Event::Dissolve { before } => {
                println!("  DISSOLVE  {}v", size(&rep.old_cores, *before))
            }
        }
    }
    Ok(())
}

fn dual_view_cmd(p: &crate::args::Parsed) -> Result<(), String> {
    use tkc_viz::dual_view::{dual_view, marker_table_tsv, render_dual_view};
    let old = load(p.positional(1, "old edge list")?)?;
    let mut new = load(p.positional(2, "new edge list")?)?;
    if new.num_vertices() < old.num_vertices() {
        new.add_vertices(old.num_vertices() - new.num_vertices());
    }
    // Additions = edges of `new` absent from `old`. Vertices beyond the
    // old snapshot's range are appended as isolated vertices first.
    let mut base = old.clone();
    if base.num_vertices() < new.num_vertices() {
        base.add_vertices(new.num_vertices() - base.num_vertices());
    }
    let additions: Vec<(VertexId, VertexId)> = new
        .edges()
        .filter(|&(_, u, v)| !base.has_edge(u, v))
        .map(|(_, u, v)| (u, v))
        .collect();
    let top: usize = p.flag_parse("top", 3usize)?;
    let view = dual_view(&base, &additions, top);
    println!(
        "{} added edges; {} changed structures marked",
        view.added_edges.len(),
        view.markers.len()
    );
    for (i, m) in view.markers.iter().enumerate() {
        println!(
            "  marker {}: κ = {} over {} vertices",
            i + 1,
            m.level,
            m.vertices.len()
        );
    }
    if let Some(path) = p.flag("svg") {
        std::fs::write(path, render_dual_view(&view, 900, 230)).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    if let Some(path) = p.flag("tsv") {
        std::fs::write(path, marker_table_tsv(&view)).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn dataset(p: &crate::args::Parsed) -> Result<(), String> {
    let name = p.positional(1, "dataset name (see Table I)")?;
    if name == "streamed" {
        return dataset_streamed(p);
    }
    let id = tkc_datasets::DatasetId::from_name(name)
        .ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let scale: f64 = p.flag_parse("scale", id.info().default_scale)?;
    let seed: u64 = p.flag_parse("seed", 42u64)?;
    let g = tkc_datasets::build(id, scale, seed);
    println!(
        "{}: built {} vertices / {} edges (paper: {} / {})",
        id.info().name,
        g.num_vertices(),
        g.num_edges(),
        id.info().paper_vertices,
        id.info().paper_edges
    );
    if let Some(path) = p.flag("out") {
        io::save_edge_list(&g, path).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

/// The block-streamed synthetic (satellite of the out-of-core store):
/// SNAP `u v` lines emitted block-by-block, never holding the graph —
/// `--scale` multiplies the ~150k-vertex bench size.
fn dataset_streamed(p: &crate::args::Parsed) -> Result<(), String> {
    let scale: f64 = p.flag_parse("scale", 1.0)?;
    let seed: u64 = p.flag_parse("seed", 42u64)?;
    let mut cfg = tkc_datasets::StreamedConfig::bench(seed);
    let scaled = (f64::from(cfg.vertices) * scale) as u32;
    cfg.vertices = scaled.max(2 * cfg.max_ring() + 2);
    match p.flag("out") {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let edges = tkc_datasets::write_snap(&cfg, file).map_err(|e| e.to_string())?;
            println!(
                "streamed: wrote {} vertices / {edges} edges to {path} (seed {seed})",
                cfg.vertices
            );
        }
        None => {
            let edges = tkc_datasets::streamed::stream_edges(&cfg, |_, _| Ok::<(), String>(()))?;
            println!(
                "streamed: {} vertices / {edges} edges (pass --out to write SNAP lines)",
                cfg.vertices
            );
        }
    }
    Ok(())
}

/// Parses a byte count with an optional k/m/g (×1024ⁿ) suffix.
fn parse_bytes(s: &str) -> Result<u64, String> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = match t.strip_suffix(['k', 'm', 'g']) {
        Some(head) => {
            let mult = match t.as_bytes().last() {
                Some(b'k') => 1u64 << 10,
                Some(b'm') => 1 << 20,
                _ => 1 << 30,
            };
            (head, mult)
        }
        None => (t.as_str(), 1),
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad byte count {s:?} (use N, Nk, Nm, or Ng)"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("byte count {s:?} overflows"))
}

fn store(p: &crate::args::Parsed) -> Result<(), String> {
    match p.positional(1, "store action (pack, info, decompose)")? {
        "pack" => store_pack(p),
        "info" => store_info(p),
        "decompose" => store_decompose(p),
        other => Err(format!("unknown store action {other:?}")),
    }
}

/// Packs a `TKCSTOR` file. Two input shapes:
///
/// * an **edge list** — decomposes it and writes graph + supports + κ to
///   `--out` (default `<input>.tkcstor`);
/// * an **engine state directory** — imports its text `state.tkc` into
///   the directory's store, carrying the header's `seq` and `term`
///   (`tkc_engine::import_text_snapshot`). `state.tkc` stays; the
///   engine's first compaction after the import deletes it.
fn store_pack(p: &crate::args::Parsed) -> Result<(), String> {
    use tkc_graph::csr::edge_supports_csr;

    let target = p.positional(2, "edge list path or engine state dir")?;
    let path = std::path::Path::new(target);
    if path.is_dir() {
        let info = tkc_engine::import_text_snapshot(path).map_err(|e| format!("{target}: {e}"))?;
        println!(
            "packed {} vertices / {} edges → {} ({} bytes)",
            info.num_vertices,
            info.num_edges,
            path.join(tkc_engine::STORE_FILE).display(),
            info.file_bytes
        );
        return Ok(());
    }

    let g = load(target)?;
    let d = triangle_kcore_decomposition(&g);
    let supports = edge_supports_csr(&g);
    let parts =
        tkc_store::pack_graph(&g, &supports, Some(d.kappa_slice())).map_err(|e| e.to_string())?;
    let default_out = format!("{target}.tkcstor");
    let out = p.flag("out").unwrap_or(&default_out);
    let bytes = parts
        .write_path(std::path::Path::new(out))
        .map_err(|e| e.to_string())?;
    let info = parts.info();
    println!(
        "packed {} vertices / {} edges → {out} ({bytes} bytes, {:.2}× the raw CSR)",
        g.num_vertices(),
        g.num_edges(),
        bytes as f64 / info.raw_csr_bytes() as f64,
    );
    Ok(())
}

fn store_info(p: &crate::args::Parsed) -> Result<(), String> {
    let target = p.positional(2, "store path")?;
    let path = std::path::Path::new(target);
    let reader = tkc_store::StoreReader::open(path, tkc_store::PageCacheConfig::default())
        .map_err(|e| format!("{target}: {e}"))?;
    let info = reader.info();
    reader
        .verify_checksums()
        .map_err(|e| format!("{target}: checksum verification failed: {e}"))?;
    println!(
        "{target}: {} vertices, {} live edges ({} slots), κ section: {}, seq {}, term {}",
        info.num_vertices,
        info.num_edges,
        info.edge_bound,
        if info.has_kappa { "yes" } else { "no" },
        reader.seq(),
        reader.term()
    );
    println!(
        "  {} bytes on disk, raw CSR {} bytes ({:.2}× the raw CSR), checksums OK",
        info.file_bytes,
        info.raw_csr_bytes(),
        info.file_bytes as f64 / info.raw_csr_bytes() as f64
    );
    for (tag, len) in &info.sections {
        println!("  section {tag:?}: {len} bytes");
    }
    Ok(())
}

fn store_decompose(p: &crate::args::Parsed) -> Result<(), String> {
    let target = p.positional(2, "store path")?;
    let budget = parse_bytes(p.flag("budget").unwrap_or("64m"))?;
    let config = tkc_core::ooc::OocConfig::with_budget(budget);
    let start = std::time::Instant::now();
    let out = tkc_core::ooc::decompose_ooc(std::path::Path::new(target), &config)
        .map_err(|e| e.to_string())?;
    let s = &out.stats;
    println!(
        "out-of-core peel: {} live edges, max κ = {} in {:?}",
        s.peeled_edges,
        out.max_kappa,
        start.elapsed()
    );
    println!(
        "  {} strata, {} cascade pulls, {} triangles; peak resident {} of {budget} budget bytes",
        s.strata,
        s.pulled_edges,
        s.triangles,
        s.peak_resident_bytes()
    );
    println!(
        "  page cache {}/{} hits, scratch cache {}/{} hits, {} bytes spilled",
        s.reader_cache.hits,
        s.reader_cache.hits + s.reader_cache.misses,
        s.scratch_cache.hits,
        s.scratch_cache.hits + s.scratch_cache.misses,
        s.spilled_bytes
    );
    Ok(())
}

fn verify(p: &crate::args::Parsed) -> Result<(), String> {
    use tkc_verify::certificate::KappaCertificate;
    use tkc_verify::differential::{default_suite, run_suite};

    // Suite mode: seeded random op streams through the dynamic maintainer,
    // cross-checked against recompute + the definitional oracle.
    if p.switch("suite") {
        let cases: usize = p.flag_parse("cases", 216usize)?;
        let configs = default_suite(cases);
        let start = std::time::Instant::now();
        match run_suite(&configs) {
            Ok(stats) => {
                println!(
                    "differential suite OK: {} streams, {} ops, {} checkpoints in {:?}",
                    cases,
                    stats.ops,
                    stats.checks,
                    start.elapsed()
                );
                Ok(())
            }
            Err(dump) => Err(format!("differential suite FAILED\n{dump}")),
        }
    } else {
        // Certificate mode: decompose (or replay ops), then have the
        // independent checker audit the claimed κ vector.
        let g = load(p.positional(1, "edge list path")?)?;
        let (g, kappa, what) = if let Some(ops_path) = p.flag("ops") {
            let text = std::fs::read_to_string(ops_path).map_err(|e| format!("{ops_path}: {e}"))?;
            let ops = parse_ops(&text)?;
            let mut m = DynamicTriangleKCore::new(g);
            let max_v = ops
                .iter()
                .map(|op| match op {
                    BatchOp::Insert(u, v) | BatchOp::Remove(u, v) => u.0.max(v.0),
                })
                .max()
                .unwrap_or(0) as usize;
            if max_v >= m.graph().num_vertices() {
                m.add_vertices(max_v + 1 - m.graph().num_vertices());
            }
            let (ins, del) = m.apply_batch(ops);
            println!("replayed {ins} insertions and {del} deletions");
            let (g, kappa) = m.into_parts();
            (g, kappa, "maintained κ after op replay")
        } else {
            let threads: usize = p.flag_parse("threads", 1)?;
            let d = Decomposition::compute_with(&g, threads);
            let kappa = d.into_kappa();
            (g, kappa, "decomposition")
        };
        let report = KappaCertificate::new(&g, &kappa).report();
        println!("{what}: {report}");
        if report.is_valid() {
            Ok(())
        } else {
            Err(format!(
                "{} certificate violation(s)",
                report.violations.len()
            ))
        }
    }
}

fn serve(p: &crate::args::Parsed) -> Result<(), String> {
    use tkc_engine::{Engine, EngineConfig, ServeOptions, Server};
    use tkc_obs::TraceBuffer;

    let dir = p.positional(1, "state directory")?;
    let addr = p.flag("addr").unwrap_or("127.0.0.1:7007");
    // Trace setup first: the global ring's capacity is fixed at its first
    // use, so --trace-cap must land before anything can record.
    let trace_out = p.flag("trace-out").map(str::to_string);
    if let Some(cap) = p.flag("trace-cap") {
        let cap: usize = cap
            .parse()
            .map_err(|_| format!("--trace-cap: cannot parse {cap:?}"))?;
        tkc_obs::trace::set_global_capacity(cap);
    }
    // --slow-op-ms needs span recording on even without --trace-out:
    // the slow-op log renders the completed span tree from the ring.
    let slow_op_ms: Option<u64> = match p.flag("slow-op-ms") {
        Some(s) => Some(
            s.parse()
                .map_err(|_| format!("--slow-op-ms: cannot parse {s:?}"))?,
        ),
        None => None,
    };
    if trace_out.is_some() || slow_op_ms.is_some() {
        TraceBuffer::global().set_enabled(true);
    }
    let slo_targets = match p.flag("slo") {
        Some(spec) => tkc_obs::slo::parse_slo_spec(spec).map_err(|e| format!("--slo: {e}"))?,
        None => Vec::new(),
    };
    let fault_plan = match p.flag("failpoint") {
        Some(spec) => {
            let plan =
                tkc_faults::FaultPlan::parse_spec(spec).map_err(|e| format!("--failpoint: {e}"))?;
            println!("fault injection armed: {}", plan.describe());
            Some(std::sync::Arc::new(plan))
        }
        None => None,
    };
    if p.flag("repl-addr").is_some() && p.flag("follow").is_some() {
        return Err("--repl-addr and --follow are mutually exclusive".into());
    }
    let config = EngineConfig {
        fsync: !p.switch("no-fsync"),
        epoch_ops: p.flag_parse("epoch-ops", 256usize)?,
        compact_bytes: p.flag_parse("compact-bytes", 4u64 << 20)?,
        fault_plan: fault_plan.clone(),
        ..EngineConfig::new(dir)
    };
    let engine = std::sync::Arc::new(Engine::open(config).map_err(|e| format!("{dir}: {e}"))?);
    {
        let snap = engine.snapshot();
        println!(
            "recovered {} vertices / {} edges (max κ = {})",
            snap.num_vertices(),
            snap.num_edges(),
            snap.max_kappa()
        );
    }
    let metrics_server = match p.flag("metrics-addr") {
        Some(maddr) => {
            let render_engine = std::sync::Arc::clone(&engine);
            let render: tkc_obs::http::RenderFn =
                std::sync::Arc::new(move || render_engine.prometheus_text());
            let ms = tkc_obs::http::serve(maddr, render)
                .map_err(|e| format!("metrics bind {maddr}: {e}"))?;
            println!("metrics listening on http://{}/metrics", ms.local_addr());
            Some(ms)
        }
        None => None,
    };
    // --idle-timeout-ms is the idle-connection reaper; --read-timeout-ms
    // is its older spelling and keeps working.
    let idle_ms = match p.flag("idle-timeout-ms") {
        Some(_) => p.flag_parse("idle-timeout-ms", 60_000u64)?,
        None => p.flag_parse("read-timeout-ms", 60_000u64)?,
    };
    let defaults = ServeOptions::default();
    let opts = ServeOptions {
        read_timeout: std::time::Duration::from_millis(idle_ms),
        max_conns: p.flag_parse("max-conns", defaults.max_conns)?,
        max_line_bytes: p.flag_parse("max-line-bytes", defaults.max_line_bytes)?,
        request_budget: p.flag_parse("request-budget", defaults.request_budget)?,
        recover_backoff: std::time::Duration::from_millis(p.flag_parse(
            "recover-backoff-ms",
            defaults.recover_backoff.as_millis() as u64,
        )?),
        slow_op: slow_op_ms.map(std::time::Duration::from_millis),
        slo: slo_targets,
        ..defaults
    };
    // Replication attaches before the client listener accepts traffic,
    // so a follower is already read-only by its first request.
    let repl_server = if p.flag("repl-addr").is_some() || p.flag("follow").is_some() {
        let ropts = tkc_engine::ReplOptions {
            repl_addr: p.flag("repl-addr").map(str::to_string),
            follow: p.flag("follow").map(str::to_string),
            fault_plan,
            ..Default::default()
        };
        let rs = tkc_engine::start_replication(&engine, ropts)
            .map_err(|e| format!("replication: {e}"))?;
        match (rs.repl_addr(), p.flag("follow")) {
            (Some(a), _) => println!("replication listening on {a}"),
            (None, Some(up)) => println!("following {up} (read-only; writes go to the primary)"),
            (None, None) => {}
        }
        Some(rs)
    } else {
        None
    };
    let server = Server::start(std::sync::Arc::clone(&engine), addr, opts)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!("tkc-engine listening on {}", server.local_addr());
    // Blocks until a client sends SHUTDOWN; the engine compacts on exit.
    server.join();
    if let Some(rs) = repl_server {
        rs.shutdown();
    }
    if let Some(ms) = metrics_server {
        ms.stop();
    }
    if let Some(path) = trace_out {
        // The same span stream `TRACE n` serves live and `tkc obs
        // report` renders offline.
        std::fs::write(&path, TraceBuffer::global().export_all_jsonl())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote span trace to {path}");
    }
    println!("shut down cleanly (state compacted to {dir})");
    Ok(())
}

/// `tkc obs report` — renders a trace JSONL file and/or a live
/// `/metrics` scrape into the human-readable snapshot documented in
/// [`crate::obs_report`].
fn obs(p: &crate::args::Parsed) -> Result<(), String> {
    use std::net::ToSocketAddrs;

    let action = p.positional(1, "obs action (report)")?;
    if action != "report" {
        return Err(format!("unknown obs action {action:?} (expected report)"));
    }
    let trace = p.flag("trace");
    let metrics_url = p.flag("metrics-url");
    if trace.is_none() && metrics_url.is_none() {
        return Err("obs report needs --trace file.jsonl and/or --metrics-url host:port".into());
    }
    let top: usize = p.flag_parse("top", 10usize)?;
    if let Some(path) = trace {
        let jsonl = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        println!("== top spans by self-time ({path}) ==");
        print!("{}", crate::obs_report::render_top_spans(&jsonl, top));
    }
    if let Some(url) = metrics_url {
        // Accept both a bare host:port and the printed
        // http://host:port/metrics form.
        let hostport = url
            .trim_start_matches("http://")
            .split('/')
            .next()
            .unwrap_or_default();
        let addr = hostport
            .to_socket_addrs()
            .map_err(|e| format!("--metrics-url {url}: {e}"))?
            .next()
            .ok_or_else(|| format!("--metrics-url {url}: no address"))?;
        let (status, body) = tkc_obs::http::get(addr, "/metrics")
            .map_err(|e| format!("--metrics-url {url}: {e}"))?;
        if status != 200 {
            return Err(format!("--metrics-url {url}: HTTP {status}"));
        }
        println!("== slo status ({hostport}) ==");
        print!("{}", crate::obs_report::render_slo_status(&body));
        println!("== latency histograms ==");
        print!("{}", crate::obs_report::render_histograms(&body));
    }
    Ok(())
}

fn chaos(p: &crate::args::Parsed) -> Result<(), String> {
    use tkc_engine::chaos::{run_repl_seed_range, run_seed_range};

    let repl = p.switch("repl");
    let seeds: u64 = p.flag_parse("seeds", if repl { 72u64 } else { 216u64 })?;
    let start: u64 = p.flag_parse("start-seed", 0u64)?;
    let root = match p.flag("dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join("tkc_chaos_cli"),
    };
    if repl {
        println!(
            "repl chaos: {seeds} seeded primary/follower schedules (seeds {start}..{}) under {}",
            start + seeds,
            root.display()
        );
        let started = std::time::Instant::now();
        return match run_repl_seed_range(&root, start, seeds) {
            Ok(total) => {
                println!(
                    "repl chaos OK in {:?}: {} batches acked, {} convergence checkpoints, \
                     {} node restarts, {} link faults injected",
                    started.elapsed(),
                    total.batches_acked,
                    total.convergences,
                    total.restarts,
                    total.faults_injected
                );
                Ok(())
            }
            Err((seed, failure)) => Err(format!(
                "repl chaos FAILED at seed {seed}: {failure}\n\
                 reproduce with: tkc chaos --repl --seeds 1 --start-seed {seed}"
            )),
        };
    }
    println!(
        "chaos: {seeds} seeded fault schedules (seeds {start}..{}) under {}",
        start + seeds,
        root.display()
    );
    let started = std::time::Instant::now();
    match run_seed_range(&root, start, seeds) {
        Ok(total) => {
            println!(
                "chaos OK in {:?}: {} batches acked, {} faults injected, \
                 {} recoveries, {} crash restarts, {} oracle checks",
                started.elapsed(),
                total.batches_acked,
                total.faults_injected,
                total.recoveries,
                total.crash_restarts,
                total.oracle_checks
            );
            Ok(())
        }
        Err((seed, failure)) => Err(format!(
            "chaos FAILED at seed {seed}: {failure}\n\
             reproduce with: tkc chaos --seeds 1 --start-seed {seed}"
        )),
    }
}

fn analyze(p: &crate::args::Parsed) -> Result<(), String> {
    let root = std::path::PathBuf::from(p.flag("root").unwrap_or("."));
    let policy = match p.flag("policy") {
        Some(path) => std::path::PathBuf::from(path),
        None => root.join("analyze.toml"),
    };
    let format = match p.flag("format").unwrap_or("text") {
        "text" => tkc_analyze::Format::Text,
        "json" => tkc_analyze::Format::Json,
        other => return Err(format!("--format must be text or json, got {other:?}")),
    };
    let mut out = std::io::stdout();
    match tkc_analyze::run_cli(&root, &policy, format, &mut out) {
        0 => Ok(()),
        // Findings (1) and setup errors (2) are already on stdout; exit
        // with the analyzer's code without dumping the tkc usage text.
        code => std::process::exit(code),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn ops_parser_accepts_both_signs_and_comments() {
        let ops = parse_ops("# header\n+ 1 2\n- 3 4\n\n+ 5 6\n").unwrap();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0], BatchOp::Insert(VertexId(1), VertexId(2)));
        assert_eq!(ops[1], BatchOp::Remove(VertexId(3), VertexId(4)));
    }

    #[test]
    fn ops_parser_rejects_malformed_lines() {
        assert!(parse_ops("* 1 2\n").unwrap_err().contains("line 1"));
        assert!(parse_ops("+ 1\n").unwrap_err().contains("bad vertex"));
    }

    #[test]
    fn run_reports_unknown_subcommand() {
        let err = run(&["frobnicate".to_string()]).unwrap_err();
        assert!(err.contains("frobnicate"));
    }

    #[test]
    fn end_to_end_new_subcommands_via_tempfiles() {
        let dir = std::env::temp_dir().join("tkc_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("old.txt");
        let new = dir.join("new.txt");
        // Old: K4 on 0..4. New: K5 on 0..5 (the core grows).
        std::fs::write(&old, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n").unwrap();
        std::fs::write(&new, "0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n").unwrap();
        let (o, n) = (old.to_str().unwrap(), new.to_str().unwrap());
        run(&[
            "events".into(),
            o.into(),
            n.into(),
            "--level".into(),
            "2".into(),
        ])
        .unwrap();
        let svg = dir.join("dv.svg");
        run(&[
            "dual-view".into(),
            o.into(),
            n.into(),
            "--svg".into(),
            svg.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(svg.exists());
        let hist = dir.join("hist.svg");
        run(&[
            "stats".into(),
            n.into(),
            "--svg".into(),
            hist.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(hist.exists());
        run(&["community".into(), n.into(), "0".into()]).unwrap();
        // Error paths report instead of panicking.
        assert!(run(&["community".into(), n.into(), "99".into()]).is_err());
        assert!(run(&["events".into(), o.into()]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn labels_parser_and_static_patterns_mode() {
        assert_eq!(parse_labels("# c\n0 7\n2 9\n", 3).unwrap(), vec![7, 0, 9]);
        assert!(parse_labels("9 1\n", 3)
            .unwrap_err()
            .contains("out of range"));
        assert!(parse_labels("x\n", 3).unwrap_err().contains("expected"));

        let dir = std::env::temp_dir().join("tkc_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.txt");
        let labels = dir.join("l.txt");
        // Two labeled triangles welded into a 4-clique across labels.
        std::fs::write(&edges, "0 1\n0 2\n1 2\n2 3\n1 3\n0 3\n").unwrap();
        std::fs::write(&labels, "0 1\n1 1\n2 2\n3 2\n").unwrap();
        run(&[
            "patterns".into(),
            edges.to_str().unwrap().into(),
            "--labels".into(),
            labels.to_str().unwrap().into(),
            "--template".into(),
            "bridge".into(),
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_subcommand_modes() {
        let dir = std::env::temp_dir().join("tkc_cli_test_verify");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.txt");
        let ops = dir.join("ops.txt");
        std::fs::write(&edges, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n").unwrap();
        std::fs::write(&ops, "+ 0 4\n+ 1 4\n+ 2 4\n- 0 1\n").unwrap();
        let e: String = edges.to_str().unwrap().into();
        run(&["verify".into(), e.clone()]).unwrap();
        run(&["verify".into(), e.clone(), "--threads".into(), "2".into()]).unwrap();
        run(&[
            "verify".into(),
            e,
            "--ops".into(),
            ops.to_str().unwrap().into(),
        ])
        .unwrap();
        run(&[
            "verify".into(),
            "--suite".into(),
            "--cases".into(),
            "6".into(),
        ])
        .unwrap();
        // Missing edge list is an error, not a panic.
        assert!(run(&["verify".into()]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn end_to_end_decompose_and_update_via_tempfiles() {
        let dir = std::env::temp_dir().join("tkc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.txt");
        let ops = dir.join("ops.txt");
        std::fs::write(&edges, "0 1\n0 2\n1 2\n1 3\n2 3\n").unwrap();
        std::fs::write(&ops, "+ 0 3\n- 1 2\n").unwrap();

        run(&[
            "decompose".into(),
            edges.to_str().unwrap().into(),
            "--top".into(),
            "2".into(),
        ])
        .unwrap();
        // --threads plumbs through to the parallel support stage (0 = all
        // cores) and must not change the result summary path.
        run(&[
            "decompose".into(),
            edges.to_str().unwrap().into(),
            "--threads".into(),
            "0".into(),
        ])
        .unwrap();
        run(&[
            "verify".into(),
            edges.to_str().unwrap().into(),
            "--threads".into(),
            "3".into(),
        ])
        .unwrap();
        assert!(run(&[
            "decompose".into(),
            edges.to_str().unwrap().into(),
            "--threads".into(),
            "nope".into(),
        ])
        .is_err());
        run(&[
            "update".into(),
            edges.to_str().unwrap().into(),
            "--ops".into(),
            ops.to_str().unwrap().into(),
            "--verify".into(),
        ])
        .unwrap();
        run(&["cliques".into(), edges.to_str().unwrap().into()]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
