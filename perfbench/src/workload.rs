//! Workload generation: seeded instance sets, written as `.smcpack`
//! files (and a text trace for the stream) plus a manifest carrying the
//! oracle answers. Generation runs in its own process, so neither its
//! time nor its memory shows in the measured run.

use std::fmt::Write as _;
use std::path::Path;

use mincut_bench::instances::{social_proxy, web_proxy};
use mincut_core::{Session, SolveOptions, TraceOp};
use mincut_ds::PqKind;
use mincut_graph::generators::{random_hyperbolic_graph, RhgParams};
use mincut_graph::kcore::k_core_lcc;
use mincut_graph::pack::write_pack_file;
use mincut_graph::{CsrGraph, DeltaGraph, EdgeWeight, GraphBuilder, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The oracle: an exact solver of another family than every timed
/// path (NOIλ̂ with the bucket stack, no VieCut seeding), with
/// reductions off.
pub const ORACLE_SOLVER: &str = "NOIλ̂-BStack";

pub fn oracle_lambda(g: &CsrGraph) -> EdgeWeight {
    let opts = SolveOptions::new()
        .no_reductions()
        .pq(PqKind::BStack)
        .witness(false);
    Session::new(g)
        .options(opts)
        .run(ORACLE_SOLVER)
        .expect("oracle solve of a generated graph")
        .cut
        .value
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RhgDefault,
    CoresDefault,
    StreamCactus,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RhgDefault,
        Workload::CoresDefault,
        Workload::StreamCactus,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RhgDefault => "rhg_default",
            Workload::CoresDefault => "cores_default",
            Workload::StreamCactus => "stream_cactus",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One generated graph: its family label and the oracle's λ.
pub struct GraphSpec {
    pub family: String,
    pub file: String,
    pub lambda: EdgeWeight,
}

/// What the measured run reads back: the graph list and, for the
/// stream, one trace file per graph.
pub struct Manifest {
    pub graphs: Vec<GraphSpec>,
    pub traces: Vec<String>,
}

/// Derives an independent generator seed for instance `i`.
fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z ^= z >> 31;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 29)
}

/// The instance families of each workload, before any random draw. Two
/// seeds give the same list: this is the workload's shape. Each family
/// appears in several replicas (independent draws), so a quantile or a
/// rate over the set does not hinge on one graph of one seed.
pub fn families(w: Workload) -> Vec<String> {
    let replicate = |names: Vec<String>, copies: usize| -> Vec<String> {
        (0..copies).flat_map(|_| names.iter().cloned()).collect()
    };
    let rhg = |cells: &[(u32, u32)]| -> Vec<String> {
        cells
            .iter()
            .map(|&(ne, de)| format!("rhg_n2^{ne}_d2^{de}"))
            .collect()
    };
    match w {
        // Fig. 2 cells small enough that one run holds > 100 default
        // solves on two cores. Five cells of five draws put the median
        // and the 90th percentile of a round inside a cell (ranks 13
        // and 23 of 25), not on the edge between two cells.
        Workload::RhgDefault => replicate(rhg(&[(12, 5), (12, 6), (12, 7), (13, 5), (13, 6)]), 5),
        // Table 1 shape: k-cores (largest component) of social and web
        // proxies, λ ≪ δ.
        Workload::CoresDefault => replicate(
            [
                "social_n2^13_k6",
                "social_n2^13_k8",
                "web_n2^13_k6",
                "web_n2^13_k10",
                "web_n2^14_k10",
                "web_n2^14_k16",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            3,
        ),
        Workload::StreamCactus => replicate(
            vec![format!(
                "ring_{STREAM_BLOCKS}x{STREAM_BLOCK_SIZE}_pin{STREAM_P_IN}_links{STREAM_LINKS}"
            )],
            STREAM_RINGS,
        ),
    }
}

fn parse_family(f: &str) -> (&str, u32, u32) {
    // "<kind>_n2^<a>_<d2^|k><b>"
    let mut parts = f.split('_');
    let kind = parts.next().expect("family kind");
    let a: u32 = parts
        .next()
        .and_then(|p| p.strip_prefix("n2^"))
        .and_then(|p| p.parse().ok())
        .expect("family n exponent");
    let b: u32 = parts
        .next()
        .and_then(|p| p.strip_prefix("d2^").or_else(|| p.strip_prefix('k')))
        .and_then(|p| p.parse().ok())
        .expect("family second parameter");
    (kind, a, b)
}

fn generate_graph(family: &str, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    if family.starts_with("ring_") {
        return cluster_ring(
            STREAM_BLOCKS,
            STREAM_BLOCK_SIZE,
            STREAM_P_IN,
            STREAM_LINKS,
            &mut rng,
        );
    }
    let (kind, a, b) = parse_family(family);
    match kind {
        "rhg" => random_hyperbolic_graph(&RhgParams::paper(1 << a, (1u64 << b) as f64), &mut rng),
        "social" => k_core_lcc(&social_proxy(1 << a, seed), b).0,
        "web" => k_core_lcc(&web_proxy(a, seed), b).0,
        other => panic!("unknown family kind {other}"),
    }
}

/// Stream base graph: a ring of dense random clusters, consecutive
/// clusters joined by a few random edges. λ is set by the ring (cut it
/// twice), far below the minimum degree, and the cactus is a cycle with
/// one min cut per pair of ring links, so every seed has the same
/// structure to maintain. Sized so one run applies a few thousand
/// updates on two cores.
pub const STREAM_BLOCKS: usize = 8;
pub const STREAM_BLOCK_SIZE: usize = 64;
pub const STREAM_P_IN: f64 = 0.4;
pub const STREAM_LINKS: usize = 3;

fn cluster_ring(k: usize, s: usize, p_in: f64, links: usize, rng: &mut SmallRng) -> CsrGraph {
    let mut b = GraphBuilder::new(k * s);
    for c in 0..k {
        let base = (c * s) as NodeId;
        for i in 0..s as NodeId {
            for j in i + 1..s as NodeId {
                if rng.gen_bool(p_in) {
                    b.add_edge(base + i, base + j, 1);
                }
            }
        }
        let next = (((c + 1) % k) * s) as NodeId;
        for _ in 0..links {
            let u = base + rng.gen_range(0..s as NodeId);
            let v = next + rng.gen_range(0..s as NodeId);
            b.add_edge(u, v, 1);
        }
    }
    b.build()
}

/// Independent rings (graph + trace) the stream interleaves, one
/// operation each in turn, so its rates do not hinge on one draw.
pub const STREAM_RINGS: usize = 3;

/// Trace length per ring: half again what one 20 s run applies, so no
/// run ends a trace early.
pub const STREAM_OPS: usize = 8_000;

/// The operation pattern, repeated in blocks of ten: two inserts, two
/// deletes, three `qc`, three `qs` (a read-mostly service). Only the
/// operands depend on the seed, so every seed has the same mix in the
/// same order.
const MIX: [u8; 10] = [b'i', b'c', b's', b'd', b'c', b's', b'i', b'c', b's', b'd'];

/// Every this many blocks of ten operations, one delete removes an edge
/// between two clusters and an insert of the next block puts one back
/// (new endpoints): λ dips and recovers on a fixed schedule, so every
/// seed makes the same number of cactus-changing updates per operation.
const LINK_EVERY_BLOCKS: usize = 50;

/// Operations per rate window of the stream: one link period of every
/// ring.
pub const STREAM_WINDOW: usize = LINK_EVERY_BLOCKS * MIX.len() * STREAM_RINGS;

/// A seeded update/query trace over a graph of `block_size`-vertex
/// clusters. Deletes remove a uniformly random live edge inside a
/// cluster and each insert adds one inside the same cluster as a pending
/// delete (inside a random cluster when none is pending), so cluster
/// densities stay put; edges between clusters change only on the
/// [`LINK_EVERY_BLOCKS`] schedule.
pub fn make_trace(g: &CsrGraph, ops: usize, block_size: usize, seed: u64) -> Vec<TraceOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut shadow = DeltaGraph::new(g.clone());
    let n = g.n() as NodeId;
    let bs = block_size as NodeId;
    let blocks = n / bs;
    let mut pending: std::collections::VecDeque<(NodeId, NodeId)> = Default::default();
    let mut out = Vec::with_capacity(ops);
    let mut index = 0usize;
    while out.len() < ops {
        let mut link_delete = index.is_multiple_of(LINK_EVERY_BLOCKS);
        index += 1;
        for &kind in &MIX {
            let op = match kind {
                b'i' => {
                    let (bu, bv) = pending.pop_front().unwrap_or_else(|| {
                        let b = rng.gen_range(0..blocks);
                        (b, b)
                    });
                    let (u, v) = loop {
                        let u = bu * bs + rng.gen_range(0..bs);
                        let v = bv * bs + rng.gen_range(0..bs);
                        if u != v {
                            break (u, v);
                        }
                    };
                    shadow.insert_edge(u, v, 1);
                    TraceOp::Insert { u, v, w: 1 }
                }
                b'd' => {
                    let inside = !std::mem::take(&mut link_delete);
                    let live: Vec<(NodeId, NodeId)> = shadow
                        .edges()
                        .filter(|&(u, v, _)| (u / bs == v / bs) == inside)
                        .map(|(u, v, _)| (u, v))
                        .collect();
                    let (u, v) = live[rng.gen_range(0..live.len())];
                    shadow.delete_edge(u, v).expect("live edge");
                    if inside {
                        pending.push_back((u / bs, v / bs));
                    } else {
                        // The link comes back before any pending
                        // in-cluster insert.
                        pending.push_front((u / bs, v / bs));
                    }
                    TraceOp::Delete { u, v }
                }
                b'c' => TraceOp::QueryCount,
                _ => {
                    let u = rng.gen_range(0..n);
                    let v = (u + 1 + rng.gen_range(0..n - 1)) % n;
                    TraceOp::QuerySeparating { u, v }
                }
            };
            out.push(op);
        }
    }
    out.truncate(ops);
    out
}

pub fn trace_text(ops: &[TraceOp]) -> String {
    let mut s = String::with_capacity(ops.len() * 12);
    for op in ops {
        let _ = match *op {
            TraceOp::Insert { u, v, w } => writeln!(s, "i {u} {v} {w}"),
            TraceOp::Delete { u, v } => writeln!(s, "d {u} {v}"),
            TraceOp::Query => writeln!(s, "q"),
            TraceOp::QueryCount => writeln!(s, "qc"),
            TraceOp::QuerySeparating { u, v } => writeln!(s, "qs {u} {v}"),
        };
    }
    s
}

/// Generates workload `w` for `seed` into `dir`: one pack per graph, the
/// trace for the stream, and `manifest.txt` with the oracle answers.
pub fn generate(w: Workload, seed: u64, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = String::new();
    for (i, family) in families(w).iter().enumerate() {
        let gseed = sub_seed(seed, i as u64);
        let g = generate_graph(family, gseed);
        let file = format!("g{i:02}.smcpack");
        write_pack_file(&g, &dir.join(&file))?;
        let lambda = oracle_lambda(&g);
        writeln!(manifest, "graph {family} {file} {lambda}").expect("string write");
        if w == Workload::StreamCactus {
            let ops = make_trace(
                &g,
                STREAM_OPS,
                STREAM_BLOCK_SIZE,
                sub_seed(seed, 1000 + i as u64),
            );
            let file = format!("g{i:02}.trace");
            std::fs::write(dir.join(&file), trace_text(&ops))?;
            writeln!(manifest, "trace {file}").expect("string write");
        }
    }
    std::fs::write(dir.join("manifest.txt"), manifest)
}

pub fn read_manifest(dir: &Path) -> Result<Manifest, String> {
    let text = std::fs::read_to_string(dir.join("manifest.txt"))
        .map_err(|e| format!("cannot read manifest in {}: {e}", dir.display()))?;
    let mut graphs = Vec::new();
    let mut traces = Vec::new();
    for line in text.lines() {
        let tok: Vec<&str> = line.split_whitespace().collect();
        match tok.as_slice() {
            ["graph", family, file, lambda] => graphs.push(GraphSpec {
                family: family.to_string(),
                file: file.to_string(),
                lambda: lambda
                    .parse()
                    .map_err(|e| format!("bad manifest λ {lambda:?}: {e}"))?,
            }),
            ["trace", file] => traces.push(file.to_string()),
            _ => return Err(format!("bad manifest line {line:?}")),
        }
    }
    if graphs.is_empty() {
        return Err("manifest lists no graph".into());
    }
    Ok(Manifest { graphs, traces })
}

/// Cluster size of the probe stream's base graph.
pub const PROBE_CLUSTER: usize = 32;

/// The small stream probe that every traced static run replays, so the
/// dynamic, cactus and service layers are timed on every workload: a
/// 4×32 cluster ring and 400 operations of the stream's mix.
pub fn probe_stream(seed: u64) -> (CsrGraph, Vec<TraceOp>) {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 2000));
    let g = cluster_ring(4, PROBE_CLUSTER, 0.4, 2, &mut rng);
    let ops = make_trace(&g, 400, PROBE_CLUSTER, sub_seed(seed, 2001));
    (g, ops)
}

/// A one-line description of the generated shape (families, sizes and
/// operation mix), for the held-out-seed check.
pub fn shape(w: Workload, seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    for (i, family) in families(w).iter().enumerate() {
        let g = generate_graph(family, sub_seed(seed, i as u64));
        out.push(format!("{family} n={} m={}", g.n(), g.m()));
        if w == Workload::StreamCactus {
            let ops = make_trace(
                &g,
                STREAM_OPS,
                STREAM_BLOCK_SIZE,
                sub_seed(seed, 1000 + i as u64),
            );
            let count = |f: fn(&TraceOp) -> bool| ops.iter().filter(|o| f(o)).count();
            out.push(format!(
                "trace ops={} insert={} delete={} qc={} qs={}",
                ops.len(),
                count(|o| matches!(o, TraceOp::Insert { .. })),
                count(|o| matches!(o, TraceOp::Delete { .. })),
                count(|o| matches!(o, TraceOp::QueryCount)),
                count(|o| matches!(o, TraceOp::QuerySeparating { .. })),
            ));
        }
    }
    out
}
