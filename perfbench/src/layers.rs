//! Per-layer probes for the traced run. Each layer is timed from
//! outside, by calling its public functions on the workload's own
//! graphs; exact counts come from the stats the library returns.

use std::time::Instant;

use mincut_core::capforest::capforest;
use mincut_core::parallel::capforest::{parallel_capforest_pooled, ParWorkerPool};
use mincut_core::viecut::{label_propagation, viecut, VieCutConfig};
use mincut_core::{
    ReductionPipeline, Session, SolveContext, SolveOptions, SolverRegistry, SolverStats,
};
use mincut_ds::{BinaryHeapPq, CountingPq, PqCounters, PqKind};
use mincut_flow::dinic_max_flow;
use mincut_graph::{ContractionEngine, ContractionPath, CsrGraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::measure::{median, quantile, seconds_since, Checks, Loaded, StreamRun, DEFAULT_SOLVER};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Share of the untraced per-solve time that `reduce.s` +
/// `solve_kernel.s` must account for. The run prints whether the probe
/// is inside it; timings are not answers, so it does not fail the run.
const ACCOUNTING_TOLERANCE: f64 = 0.15;

/// Repetitions of the reduce and kernel probes per graph; each half is
/// the median of its repetitions, as the untraced solve time it is
/// compared with is a median too.
const SPLIT_REPS: usize = 5;

/// `s–t` pairs per graph for the Dinic probe.
const FLOW_PAIRS: usize = 3;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, seconds_since(t))
}

/// Bytes a contraction reads and writes, computed from the array sizes
/// of the CSR layout (8-byte offsets, 4-byte targets, 8-byte weights)
/// and the 4-byte label array; cache misses are not counted.
fn contraction_bytes(g: &CsrGraph, c: &CsrGraph) -> f64 {
    let csr = |g: &CsrGraph| (g.n() + 1) as f64 * 8.0 + g.num_arcs() as f64 * 12.0;
    csr(g) + g.n() as f64 * 4.0 + csr(c)
}

/// Median wall time of `reps` untraced default solves of `g`.
pub fn median_solve_s(g: &CsrGraph, reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| timed(|| Session::new(g).run(DEFAULT_SOLVER)).1)
        .collect();
    median(&times)
}

/// Probes the static layers (pack aside) on each of `graphs`, given
/// with the median untraced time of a default solve of each.
pub fn static_layers(
    graphs: &[(&Loaded, f64)],
    nproc: usize,
    seed: u64,
    checks: &mut Checks,
) -> Vec<Metric> {
    let solver = SolverRegistry::global()
        .resolve(DEFAULT_SOLVER)
        .expect("default solver is registered");
    let full_s: f64 = graphs.iter().map(|(_, s)| s).sum();
    let mut reduce_s = 0.0;
    let mut pass_s = [0.0f64; 4];
    let mut rounds = 0u64;
    let mut removed = Vec::new();
    let mut kernel_s = 0.0;
    let mut nored_s = 0.0;
    let mut noi_rounds = 0u64;
    let mut lp_s = 0.0;
    let mut viecut_s = 0.0;
    let mut bound_ratio = Vec::new();
    let mut scan_s = 0.0;
    let mut pq = PqCounters::default();
    let mut contract_s = 0.0;
    let mut contract_bytes = 0.0;
    let mut paths = [0u64; 4];
    let mut par_scan_s = 0.0;
    let mut par_scan_s_p1 = 0.0;
    let mut par_rounds = 0u64;
    let mut par_solve_s = 0.0;
    let mut par_solve_s_p1 = 0.0;
    let mut dinic_us = Vec::new();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xd1_41c);
    let mut pool = ParWorkerPool::new();

    for &(l, _) in graphs {
        let g = &l.graph;
        let mut check = |what: &str, value: u64| {
            checks.record(value == l.lambda, || {
                format!("{what} on {}: {value} (oracle {})", l.family, l.lambda)
            })
        };

        // The default solve's two halves: reduction, then the solver on
        // the kernel.
        let mut red_times = Vec::with_capacity(SPLIT_REPS);
        let mut red = None;
        for _ in 0..SPLIT_REPS {
            let mut stats = SolverStats::new("reduce".into(), g.n(), g.m());
            let (out, s) = timed(|| {
                ReductionPipeline::standard().run(g, None, &mut SolveContext::new(&mut stats))
            });
            red_times.push(s);
            red = Some(out.expect("reduction pipeline on a generated graph"));
        }
        reduce_s += median(&red_times);
        let red = red.expect("at least one reduction");
        for p in &red.passes {
            let slot = match p.name {
                "components" => 0,
                "degree-bound" => 1,
                "heavy-edge" => 2,
                _ => 3,
            };
            pass_s[slot] += p.seconds;
        }
        rounds += red.passes.iter().map(|p| p.rounds).max().unwrap_or(0);
        removed.push(1.0 - red.kernel.n() as f64 / g.n() as f64);
        let mut kernel_times = Vec::with_capacity(SPLIT_REPS);
        for _ in 0..SPLIT_REPS {
            let (out, s) = timed(|| solver.solve_with_kernel(g, &SolveOptions::new(), &red));
            kernel_times.push(s);
            check("solve_with_kernel", out.map_or(u64::MAX, |o| o.cut.value));
        }
        kernel_s += median(&kernel_times);

        // The paper's configuration of the same solver: reductions off.
        let (out, s) = timed(|| {
            Session::new(g)
                .options(SolveOptions::new().no_reductions())
                .run(DEFAULT_SOLVER)
        });
        nored_s += s;
        match out {
            Ok(o) => {
                noi_rounds += o.stats.rounds;
                check("reductions-off solve", o.cut.value);
            }
            Err(_) => check("reductions-off solve", u64::MAX),
        }

        // VieCut: label propagation alone, then the whole bound.
        let cfg = VieCutConfig::default();
        let (_, s) = timed(|| label_propagation(g, cfg.lp_iterations, cfg.seed));
        lp_s += s;
        let (bound, s) = timed(|| viecut(g, &cfg));
        viecut_s += s;
        if l.lambda > 0 {
            bound_ratio.push(bound.value as f64 / l.lambda as f64);
        }

        // One CAPFOREST scan at the VieCut bound, and the contraction of
        // the scan's unions (NOI's first round).
        let start = rng.gen_range(0..g.n() as NodeId);
        let (mut scan, s) =
            timed(|| capforest::<CountingPq<BinaryHeapPq>>(g, bound.value, start, true));
        scan_s += s;
        pq.add(scan.pq_ops);
        let (labels, blocks) = scan.uf.dense_labels();
        let mut engine = ContractionEngine::new();
        let (c, s) = timed(|| engine.contract(g, &labels, blocks));
        contract_s += s;
        contract_bytes += contraction_bytes(g, &c);
        paths[match engine.last_path() {
            ContractionPath::SeqHash => 0,
            ContractionPath::SeqSort => 1,
            ContractionPath::SeqMatrix => 2,
            ContractionPath::Parallel => 3,
        }] += 1;

        // Parallel CAPFOREST at nproc and at one worker (pool warm).
        let scan_at = |threads: usize, pool: &mut ParWorkerPool| {
            timed(|| {
                parallel_capforest_pooled(g, bound.value, threads, cfg.seed, PqKind::Heap, pool)
            })
            .1
        };
        scan_at(nproc, &mut pool);
        par_scan_s += scan_at(nproc, &mut pool);
        par_scan_s_p1 += scan_at(1, &mut pool);
        let parcut = |threads: usize| {
            timed(|| {
                Session::new(g)
                    .options(SolveOptions::new().no_reductions().threads(threads))
                    .run("parcut")
            })
        };
        let (out, s) = parcut(nproc);
        par_solve_s += s;
        match out {
            Ok(o) => {
                par_rounds += o.stats.rounds;
                check("parcut solve", o.cut.value);
            }
            Err(_) => check("parcut solve", u64::MAX),
        }
        let (out, s) = parcut(1);
        par_solve_s_p1 += s;
        check("parcut p=1 solve", out.map_or(u64::MAX, |o| o.cut.value));

        // Max flow between sampled pairs: every s–t flow is at least λ.
        for _ in 0..FLOW_PAIRS {
            let s = rng.gen_range(0..g.n() as NodeId);
            let t = (s + 1 + rng.gen_range(0..g.n() as NodeId - 1)) % g.n() as NodeId;
            let ((flow, _), secs) = timed(|| dinic_max_flow(g, s, t));
            dinic_us.push(secs * 1e6);
            checks.record(flow >= l.lambda, || {
                format!("dinic {s}-{t} on {}: {flow} < λ {}", l.family, l.lambda)
            });
        }
    }

    let accounted = (reduce_s + kernel_s) / full_s;
    println!(
        "accounting: reduce.s + solve_kernel.s = {:.1}% of the untraced default solve time \
         (tolerance ±{:.0}%): {}",
        accounted * 100.0,
        ACCOUNTING_TOLERANCE * 100.0,
        if (accounted - 1.0).abs() <= ACCOUNTING_TOLERANCE {
            "within"
        } else {
            "OUTSIDE"
        }
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    vec![
        metric("solve.s", full_s, "s"),
        metric("solve.accounted_frac", accounted, "ratio"),
        metric("reduce.s", reduce_s, "s"),
        metric("reduce.components_s", pass_s[0], "s"),
        metric("reduce.degree_bound_s", pass_s[1], "s"),
        metric("reduce.heavy_edge_s", pass_s[2], "s"),
        metric("reduce.padberg_rinaldi_s", pass_s[3], "s"),
        metric("reduce.rounds", rounds as f64, "count"),
        metric("reduce.removed_frac", mean(&removed), "ratio"),
        metric("reduce.payoff", nored_s / (reduce_s + kernel_s), "ratio"),
        metric("solve_kernel.s", kernel_s, "s"),
        metric("solve_noreduce.s", nored_s, "s"),
        metric("viecut.lp_s", lp_s, "s"),
        metric("viecut.s", viecut_s, "s"),
        metric("viecut.bound_ratio", mean(&bound_ratio), "ratio"),
        metric("capforest.scan_s", scan_s, "s"),
        metric("pq.pushes", pq.pushes as f64, "count"),
        metric("pq.raises", pq.raises as f64, "count"),
        metric("pq.pops", pq.pops as f64, "count"),
        metric("noi.rounds", noi_rounds as f64, "count"),
        metric("parcut.scan_s", par_scan_s, "s"),
        metric("parcut.scan_s_p1", par_scan_s_p1, "s"),
        metric(
            "parcut.scan_scaling_eff",
            par_scan_s_p1 / (nproc as f64 * par_scan_s),
            "ratio",
        ),
        metric("parcut.rounds", par_rounds as f64, "count"),
        metric(
            "parcut.solve_scaling_eff",
            par_solve_s_p1 / (nproc as f64 * par_solve_s),
            "ratio",
        ),
        metric("contract.s", contract_s, "s"),
        metric(
            "contract.gb_per_s",
            contract_bytes / contract_s / 1e9,
            "GB/s",
        ),
        metric("contract.path.seq_hash", paths[0] as f64, "count"),
        metric("contract.path.seq_sort", paths[1] as f64, "count"),
        metric("contract.path.seq_matrix", paths[2] as f64, "count"),
        metric("contract.path.parallel", paths[3] as f64, "count"),
        metric("flow.dinic_us_p50", median(&dinic_us), "us"),
    ]
}

/// The dynamic, cactus and service layers, from one stream loop.
pub fn stream_layers(run: &StreamRun) -> Vec<Metric> {
    let d = &run.dynamic;
    let c = &run.cache;
    let updates = run.update_us.len().max(1) as f64;
    let q = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { quantile(v, p) };
    // Each registration's initial build is set-up, not maintenance.
    let rebuilds = d.cactus_rebuilds.saturating_sub(run.rings as u64);
    let update_s: f64 = run.update_us.iter().sum::<f64>() / 1e6;
    vec![
        metric("dynamic.updates_per_s", updates / update_s, "1/s"),
        metric("dynamic.update_us_p50", q(&run.update_us, 0.5), "us"),
        metric("dynamic.update_us_p99", q(&run.update_us, 0.99), "us"),
        metric("dynamic.query_us_p50", q(&run.query_us, 0.5), "us"),
        metric("dynamic.query_us_p95", q(&run.query_us, 0.95), "us"),
        metric("dynamic.absorb_us_p50", q(&run.absorb_us, 0.5), "us"),
        metric("dynamic.resolve_us_p50", q(&run.resolve_us, 0.5), "us"),
        metric(
            "dynamic.resolve_frac",
            run.resolve_us.len() as f64 / updates,
            "ratio",
        ),
        metric("dynamic.resolve_s", d.resolve_seconds, "s"),
        metric("cactus.build_s", run.cactus_build_s, "s"),
        metric("cactus.s", d.cactus_seconds - run.cactus_build_s, "s"),
        metric(
            "cactus.repair_frac",
            d.cactus_repairs as f64 / (d.cactus_repairs + rebuilds).max(1) as f64,
            "ratio",
        ),
        metric("cactus.rebuilds", rebuilds as f64, "count"),
        metric("cache.hits", c.hits as f64, "count"),
        metric("cache.misses", c.misses as f64, "count"),
        metric("cache.invalidations", c.invalidations as f64, "count"),
        metric(
            "cache.hit_frac",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
            "ratio",
        ),
    ]
}
