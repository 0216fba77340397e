//! The timed closed loops: one caller issues each solve or stream
//! operation and waits for its answer before the next. Every answer is
//! checked against the oracle outside the timed window.

use std::path::Path;
use std::time::Instant;

use mincut_core::{
    materialize, CacheStats, CactusBuilder, DynamicHandle, DynamicStats, MinCutService,
    ServiceConfig, Session, SolveOptions, TraceOp,
};
use mincut_flow::dinic_max_flow;
use mincut_graph::pack::load_pack;
use mincut_graph::{CsrGraph, DeltaGraph, EdgeWeight};

use crate::workload::oracle_lambda;

/// The solver every default-path workload runs: the CLI's default.
pub const DEFAULT_SOLVER: &str = "noi-viecut";

/// Answers attempted and answers that failed or were wrong.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: wrong answer: {}", what());
            }
        }
    }
}

/// One timed operation: wall seconds and the edge count of the graph it
/// ran on.
#[derive(Clone, Copy)]
pub struct Op {
    pub seconds: f64,
    pub m: usize,
}

pub fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nearest-rank quantile of unsorted samples (`q` in [0, 1]).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The user-visible numbers of one loop.
pub struct EndToEnd {
    pub ops: usize,
    pub edges_per_s: f64,
    pub ns_per_edge_p50: f64,
    pub ns_per_edge_p90: f64,
    pub ops_per_s: f64,
    /// Edges/s of every window, in run order.
    pub window_rates: Vec<f64>,
}

/// Every statistic is the median over consecutive windows of `window`
/// operations (a whole round over the graphs, or one link period of
/// every stream ring) of that statistic within the window, so a burst
/// of noise from outside the process moves one window, not the result.
/// A run shorter than one window is one window.
pub fn end_to_end(ops: &[Op], window: usize) -> EndToEnd {
    let windows: Vec<&[Op]> = if ops.len() >= window {
        ops.chunks_exact(window).collect()
    } else {
        vec![ops]
    };
    let per_window =
        |f: &dyn Fn(&[Op]) -> f64| -> Vec<f64> { windows.iter().map(|w| f(w)).collect() };
    let seconds = |w: &[Op]| w.iter().map(|o| o.seconds).sum::<f64>();
    let ns_per_edge = |w: &[Op]| -> Vec<f64> {
        w.iter()
            .map(|o| o.seconds * 1e9 / o.m.max(1) as f64)
            .collect()
    };
    let edge_rates = per_window(&|w| w.iter().map(|o| o.m as f64).sum::<f64>() / seconds(w));
    EndToEnd {
        ops: ops.len(),
        edges_per_s: median(&edge_rates),
        ns_per_edge_p50: median(&per_window(&|w| quantile(&ns_per_edge(w), 0.5))),
        ns_per_edge_p90: median(&per_window(&|w| quantile(&ns_per_edge(w), 0.9))),
        ops_per_s: median(&per_window(&|w| w.len() as f64 / seconds(w))),
        window_rates: edge_rates,
    }
}

/// Drains recorded spans when tracing is on (outside the timed window,
/// so the in-memory sink stays small); returns how many were drained.
fn drain_spans() -> u64 {
    if mincut_obs::tracing_enabled() {
        mincut_obs::take_events().0.len() as u64
    } else {
        0
    }
}

pub struct Loaded {
    pub family: String,
    pub graph: CsrGraph,
    pub lambda: EdgeWeight,
}

/// Loads every pack `reps` times (fresh mappings each time) and returns
/// the graphs of the last round with the median round time and the pack
/// bytes.
pub fn load_graphs(
    dir: &Path,
    specs: &[crate::workload::GraphSpec],
    reps: usize,
) -> Result<(Vec<Loaded>, f64, u64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut loaded = Vec::new();
    for _ in 0..reps {
        loaded.clear();
        let t = Instant::now();
        for s in specs {
            let g =
                load_pack(&dir.join(&s.file)).map_err(|e| format!("load_pack {}: {e}", s.file))?;
            loaded.push(g);
        }
        times.push(seconds_since(t));
    }
    let mut bytes = 0;
    for s in specs {
        bytes += std::fs::metadata(dir.join(&s.file))
            .map_err(|e| format!("stat {}: {e}", s.file))?
            .len();
    }
    let graphs = loaded
        .into_iter()
        .zip(specs)
        .map(|(graph, s)| Loaded {
            family: s.family.clone(),
            graph,
            lambda: s.lambda,
        })
        .collect();
    Ok((graphs, median(&times), bytes))
}

/// What a static loop measured.
pub struct StaticRun {
    /// Operations timed with tracing off.
    pub ops: Vec<Op>,
    /// Operations timed with tracing on (alternating runs only).
    pub traced_ops: Vec<Op>,
    pub span_events: u64,
}

fn check_solve(
    checks: &mut Checks,
    l: &Loaded,
    out: Result<mincut_core::SolveOutcome, mincut_core::MinCutError>,
) {
    match out {
        Ok(o) => {
            let ok = o.cut.value == l.lambda && o.cut.verify(&l.graph);
            checks.record(ok, || {
                format!(
                    "{DEFAULT_SOLVER} on {}: λ = {} (oracle {}), witness ok = {}",
                    l.family,
                    o.cut.value,
                    l.lambda,
                    o.cut.verify(&l.graph)
                )
            });
        }
        Err(e) => checks.record(false, || {
            format!("{DEFAULT_SOLVER} on {} failed: {e}", l.family)
        }),
    }
}

/// Solves the graphs round-robin with the default options, whole rounds
/// only, until `seconds` have passed, and calls `between` after every
/// round. With `alternate`, every other round runs with tracing on, so
/// the tracing overhead is measured pairwise against rounds interleaved
/// in time.
pub fn static_loop(
    graphs: &[Loaded],
    seconds: f64,
    alternate: bool,
    checks: &mut Checks,
    between: &mut dyn FnMut(),
) -> StaticRun {
    let mut run = StaticRun {
        ops: Vec::new(),
        traced_ops: Vec::new(),
        span_events: 0,
    };
    let start = Instant::now();
    for round in 0.. {
        // An alternating run holds at least one round of each kind.
        if seconds_since(start) >= seconds && (!alternate || round >= 2) {
            break;
        }
        let traced = alternate && round % 2 == 1;
        mincut_obs::set_tracing(traced);
        for l in graphs {
            let g = &l.graph;
            let t = Instant::now();
            let out = Session::new(g).run(DEFAULT_SOLVER);
            let op = Op {
                seconds: seconds_since(t),
                m: g.m(),
            };
            if traced {
                run.traced_ops.push(op);
            } else {
                run.ops.push(op);
            }
            run.span_events += drain_spans();
            check_solve(checks, l, out);
        }
        between();
    }
    mincut_obs::set_tracing(false);
    run
}

/// Median untraced time of each graph's solves in a static loop's
/// operations (whole rounds over `graphs` graphs, in order).
pub fn per_graph_median(ops: &[Op], graphs: usize) -> Vec<f64> {
    (0..graphs)
        .map(|i| {
            let times: Vec<f64> = ops
                .iter()
                .skip(i)
                .step_by(graphs)
                .map(|o| o.seconds)
                .collect();
            median(&times)
        })
        .collect()
}

/// A registered dynamic graph and what its registration cost.
pub struct Registered {
    pub service: MinCutService,
    pub handle: DynamicHandle,
    pub setup_s: f64,
    pub cactus_build_s: f64,
}

/// The stream's set-up: map the base graph and register it with cactus
/// maintenance (initial solve and cactus build).
pub fn register(pack: &Path) -> Result<(Registered, CsrGraph), String> {
    let t = Instant::now();
    let g = load_pack(pack).map_err(|e| format!("load_pack {}: {e}", pack.display()))?;
    let mut reg = register_graph(g.clone())?;
    reg.setup_s = seconds_since(t);
    Ok((reg, g))
}

/// Registers `g` with cactus maintenance on a fresh service.
pub fn register_graph(g: CsrGraph) -> Result<Registered, String> {
    let t = Instant::now();
    let service = MinCutService::new(ServiceConfig::new());
    let handle = service
        .register_dynamic_with_cactus(g, DEFAULT_SOLVER, SolveOptions::new())
        .map_err(|e| format!("register_dynamic_with_cactus: {e}"))?;
    let setup_s = seconds_since(t);
    let cactus_build_s = service
        .dynamic_stats(handle)
        .map_err(|e| e.to_string())?
        .cactus_seconds;
    Ok(Registered {
        service,
        handle,
        setup_s,
        cactus_build_s,
    })
}

/// What a stream loop measured. Latencies are of untraced operations;
/// `DynamicStats` and `CacheStats` cover every operation.
pub struct StreamRun {
    pub ops: Vec<Op>,
    pub traced_ops: Vec<Op>,
    pub update_us: Vec<f64>,
    pub absorb_us: Vec<f64>,
    pub resolve_us: Vec<f64>,
    pub query_us: Vec<f64>,
    pub dynamic: DynamicStats,
    pub cache: CacheStats,
    pub cactus_build_s: f64,
    pub span_events: u64,
    /// Rings replayed; each registration built one cactus.
    pub rings: usize,
}

/// Stream steps per tracing phase when tracing alternates: one whole
/// window, so each phase holds the same scheduled cactus rebuilds.
const TRACE_PHASE_STEPS: usize = crate::workload::STREAM_WINDOW;

/// How often (in operations of one ring) the stream's λ is checked
/// against a from-scratch oracle solve of the materialised graph, on
/// top of the checks around every λ change.
pub const STREAM_CHECK_EVERY: usize = 25;

/// A stream loop stops when its timed operations add up to the
/// requested seconds, or when this many times that has passed on the
/// wall clock (the oracle's checks run outside the timed window).
const STREAM_WALL_CAP: f64 = 3.0;

/// One hosted stream: its registration, base graph, trace, and the
/// cluster size of its base graph (an update whose endpoints lie in two
/// clusters changes a link between clusters).
pub struct Ring<'a> {
    pub reg: &'a Registered,
    pub base: &'a CsrGraph,
    pub trace: &'a [TraceOp],
    pub cluster: usize,
}

/// Replays the rings' traces through their services, one operation of
/// each ring in turn, until the timed operations add up to `seconds` or
/// a trace ends, and calls `between` after every window of
/// [`STREAM_WINDOW`](crate::workload::STREAM_WINDOW) steps. A shadow copy of each graph, updated outside the timed
/// window, feeds the oracle. With `alternate`, tracing is on in every
/// other phase of [`TRACE_PHASE_STEPS`] steps.
///
/// Checks, all outside the timed window: every `qs` cut separates its
/// pair with value λ, and a `qs` without a cut has a max flow above λ
/// between its pair; every `qc` count is at least 1. The served λ is
/// compared with an oracle solve of the materialised graph every
/// [`STREAM_CHECK_EVERY`] operations and on every operation from a
/// link update or a λ change up to the next `qc`, whose count is then
/// compared with a fresh `CactusBuilder`. At the end λ and the count
/// are compared once more.
pub fn stream_loop(
    rings: &[Ring],
    seconds: f64,
    alternate: bool,
    checks: &mut Checks,
    between: &mut dyn FnMut(),
) -> StreamRun {
    let mut shadows: Vec<DeltaGraph> = rings
        .iter()
        .map(|r| DeltaGraph::new(r.base.clone()))
        .collect();
    let mut last_lambda: Vec<Option<EdgeWeight>> = vec![None; rings.len()];
    // Ring k's cactus changed: check operations until its next `qc`.
    let mut watch = vec![false; rings.len()];
    let mut run = StreamRun {
        ops: Vec::new(),
        traced_ops: Vec::new(),
        update_us: Vec::new(),
        absorb_us: Vec::new(),
        resolve_us: Vec::new(),
        query_us: Vec::new(),
        dynamic: DynamicStats::default(),
        cache: CacheStats::default(),
        cactus_build_s: rings.iter().map(|r| r.reg.cactus_build_s).sum(),
        span_events: 0,
        rings: rings.len(),
    };
    let mut timed_s = 0.0;
    let start = Instant::now();
    for step in 0.. {
        let (k, index) = (step % rings.len(), step / rings.len());
        let ring = &rings[k];
        let spent = timed_s >= seconds || seconds_since(start) >= STREAM_WALL_CAP * seconds;
        let done = spent && (!alternate || step >= 2 * TRACE_PHASE_STEPS);
        if index >= ring.trace.len() || done {
            break;
        }
        if step > 0 && step % crate::workload::STREAM_WINDOW == 0 {
            between();
        }
        let traced = alternate && (step / TRACE_PHASE_STEPS) % 2 == 1;
        if step % TRACE_PHASE_STEPS == 0 {
            mincut_obs::set_tracing(traced);
        }
        let (svc, h) = (&ring.reg.service, ring.reg.handle);
        let shadow = &mut shadows[k];
        let op = &ring.trace[index];
        let m = shadow.m();
        let t = Instant::now();
        let report = svc.dynamic_update(h, op);
        // Queries fetch their answer the way the CLI serves them: the
        // count from the epoch-keyed cactus cache, a separating cut
        // through the batched fan-out.
        let answer = match (*op, &report) {
            (TraceOp::QueryCount, Ok(_)) => Some(
                svc.dynamic_cactus(h)
                    .map(|(c, _)| Answer::Count(c.count_min_cuts())),
            ),
            (TraceOp::QuerySeparating { u, v }, Ok(_)) => Some(
                svc.min_cuts_separating_many(h, &[(u, v)])
                    .map(|mut cuts| Answer::Side(cuts.pop().flatten())),
            ),
            _ => None,
        };
        let seconds = seconds_since(t);
        timed_s += seconds;
        run.span_events += drain_spans();
        let us = seconds * 1e6;
        let latency = if traced {
            run.traced_ops.push(Op { seconds, m });
            None
        } else {
            run.ops.push(Op { seconds, m });
            Some(us)
        };

        let report = match report {
            Ok(r) => r,
            Err(e) => {
                checks.record(false, || format!("ring {k} op {index} failed: {e}"));
                continue;
            }
        };
        let link = match *op {
            TraceOp::Insert { u, v, w } => {
                shadow.insert_edge(u, v, w);
                u as usize / ring.cluster != v as usize / ring.cluster
            }
            TraceOp::Delete { u, v } => {
                shadow.delete_edge(u, v);
                u as usize / ring.cluster != v as usize / ring.cluster
            }
            _ => false,
        };
        let update = matches!(op, TraceOp::Insert { .. } | TraceOp::Delete { .. });
        if let Some(us) = latency {
            if !update {
                run.query_us.push(us);
            } else {
                run.update_us.push(us);
                if report.resolved {
                    run.resolve_us.push(us);
                } else {
                    run.absorb_us.push(us);
                }
            }
        }
        let changed = last_lambda[k].is_some_and(|l| l != report.lambda);
        last_lambda[k] = Some(report.lambda);
        watch[k] |= link || changed;
        let check_lambda = watch[k] || index % STREAM_CHECK_EVERY == 0;
        let needs_graph = check_lambda || matches!(answer, Some(Ok(Answer::Side(None))));
        let materialised = needs_graph.then(|| materialize(shadow));
        let g = || materialised.as_ref().expect("materialised for this check");
        let ok = match answer {
            Some(Ok(Answer::Side(side))) => {
                let (u, v) = match *op {
                    TraceOp::QuerySeparating { u, v } => (u, v),
                    _ => unreachable!("sides answer separating queries"),
                };
                match side {
                    Some(side) => {
                        side[u as usize]
                            && !side[v as usize]
                            && shadow.is_proper_cut(&side)
                            && shadow.cut_value(&side) == report.lambda
                    }
                    // No minimum cut separates u and v: every u–v cut
                    // is heavier than λ.
                    None => dinic_max_flow(g(), u, v).0 > report.lambda,
                }
            }
            Some(Ok(Answer::Count(count))) if watch[k] => {
                watch[k] = false;
                let fresh = CactusBuilder::new().build(g()).map(|c| c.count_min_cuts());
                fresh.is_ok_and(|f| f == count)
            }
            Some(Ok(Answer::Count(count))) => count >= 1,
            Some(Err(e)) => {
                eprintln!("perfbench: ring {k} query {index} failed: {e}");
                false
            }
            None => true,
        };
        let ok = ok && (!check_lambda || oracle_lambda(g()) == report.lambda);
        checks.record(ok, || {
            format!("ring {k} op {index} ({op:?}): λ = {}", report.lambda)
        });
    }

    mincut_obs::set_tracing(false);
    for (k, ring) in rings.iter().enumerate() {
        let (svc, h) = (&ring.reg.service, ring.reg.handle);
        if let Ok(d) = svc.dynamic_stats(h) {
            add_dynamic(&mut run.dynamic, &d);
        }
        let c = svc.cache_stats();
        run.cache.hits += c.hits;
        run.cache.misses += c.misses;
        run.cache.insertions += c.insertions;
        run.cache.invalidations += c.invalidations;

        // Final check: λ and the min-cut count against a fresh solve and
        // a fresh cactus of the materialised graph.
        let g = materialize(&shadows[k]);
        let lambda = oracle_lambda(&g);
        let served = svc.dynamic_lambda(h).map(|(l, _)| l);
        checks.record(
            served.as_ref().ok() == Some(&lambda) && last_lambda[k].is_none_or(|l| l == lambda),
            || format!("ring {k} final λ: served {served:?}, oracle {lambda}"),
        );
        let fresh = CactusBuilder::new().build(&g).map(|c| c.count_min_cuts());
        let count = svc.dynamic_cactus(h).map(|(c, _)| c.count_min_cuts());
        checks.record(
            fresh.is_ok() && fresh.as_ref().ok() == count.as_ref().ok(),
            || format!("ring {k} final qc: served {count:?}, fresh cactus {fresh:?}"),
        );
    }
    run
}

fn add_dynamic(sum: &mut DynamicStats, d: &DynamicStats) {
    sum.insertions += d.insertions;
    sum.deletions += d.deletions;
    sum.queries += d.queries;
    sum.incremental += d.incremental;
    sum.resolves += d.resolves;
    sum.resolve_seconds += d.resolve_seconds;
    sum.cactus_rebuilds += d.cactus_rebuilds;
    sum.cactus_absorbed += d.cactus_absorbed;
    sum.cactus_repairs += d.cactus_repairs;
    sum.repair_fallbacks += d.repair_fallbacks;
    sum.cactus_seconds += d.cactus_seconds;
}

enum Answer {
    Count(u128),
    Side(Option<Vec<bool>>),
}
