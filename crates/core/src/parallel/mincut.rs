//! Algorithm 2 of the paper: the full shared-memory parallel exact
//! minimum-cut solver (**ParCut**).
//!
//! ```text
//! λ̂ ← VieCut(G); G_C ← G
//! while G_C has more than 2 vertices:
//!     λ̂ ← Parallel CAPFOREST(G_C, λ̂)
//!     if no edges marked contractible:
//!         λ̂ ← CAPFOREST(G_C, λ̂)          (sequential rescue)
//!     G_C, λ̂ ← Parallel Graph Contract(G_C)
//! return λ̂
//! ```
//!
//! Early-terminating parallel scans cannot guarantee a marked edge
//! (§3.2: in the paper's experiments this only happens on graphs with
//! < 50 vertices); the rescue path runs one sequential CAPFOREST and, if
//! even that marks nothing (possible with a bounded queue), one
//! Stoer–Wagner phase, which always makes progress.

use mincut_ds::PqKind;
use mincut_graph::{ContractionEngine, CsrGraph, Membership, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::capforest::ScanWorkspace;
use crate::error::MinCutError;
use crate::parallel::capforest::{parallel_capforest_pooled, ParWorkerPool};
use crate::solver::disconnected_cut;
use crate::stats::{SolveContext, SolverStats};
use crate::stoer_wagner::stoer_wagner_phase;
use crate::viecut::{viecut_connected, VieCutConfig};
use crate::MinCutResult;

/// Configuration for [`parallel_minimum_cut`].
#[derive(Clone, Debug)]
pub struct ParCutConfig {
    /// Queue used by every worker (the paper's ParCutλ̂-BStack /
    /// ParCutλ̂-BQueue / ParCutλ̂-Heap; BQueue scales best, §4.3).
    pub pq: PqKind,
    /// Worker threads for the CAPFOREST rounds (rayon handles the
    /// contraction and VieCut data-parallel phases independently).
    pub threads: usize,
    /// Seed λ̂ with VieCut before the exact loop (§3.3). Disable to
    /// measure the contribution of the bound (ablation).
    pub use_viecut: bool,
    /// Track and return the cut side.
    pub compute_side: bool,
    /// RNG seed (start vertices, VieCut).
    pub seed: u64,
}

impl Default for ParCutConfig {
    fn default() -> Self {
        ParCutConfig {
            pq: PqKind::BQueue,
            threads: crate::options::hardware_threads(),
            use_viecut: true,
            compute_side: true,
            seed: 0xacc5,
        }
    }
}

/// Exact minimum cut, shared-memory parallel (Algorithm 2).
/// Requires n ≥ 2; handles disconnected inputs.
pub fn parallel_minimum_cut(g: &CsrGraph, cfg: &ParCutConfig) -> MinCutResult {
    assert!(g.n() >= 2, "minimum cut needs at least two vertices");
    disconnected_cut(g, cfg.compute_side).unwrap_or_else(|| {
        let mut stats = SolverStats::scratch();
        let mut ctx = SolveContext::new(&mut stats);
        parallel_minimum_cut_connected(g, cfg, &mut ctx)
            .expect("ParCut without a time budget cannot fail")
    })
}

/// Algorithm body for inputs already known to be connected with n ≥ 2
/// (the session preflight guarantees both), skipping the redundant
/// component scan.
pub(crate) fn parallel_minimum_cut_connected(
    g: &CsrGraph,
    cfg: &ParCutConfig,
    ctx: &mut SolveContext<'_>,
) -> Result<MinCutResult, MinCutError> {
    assert!(cfg.threads >= 1);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Initial bound: trivial degree cut, then VieCut (§3.1.1).
    let (dv, ddeg) = g.min_weighted_degree().expect("n >= 2");
    let mut lambda = ddeg;
    let mut best_side = cfg.compute_side.then(|| {
        let mut s = vec![false; g.n()];
        s[dv as usize] = true;
        s
    });
    if cfg.use_viecut {
        let vc = ctx.stats.time_phase("viecut", |stats| {
            let mut inner = SolveContext {
                stats,
                deadline: ctx.deadline,
                budget: ctx.budget,
            };
            viecut_connected(
                g,
                &VieCutConfig {
                    compute_side: cfg.compute_side,
                    seed: cfg.seed,
                    ..VieCutConfig::default()
                },
                &mut inner,
            )
        })?;
        if vc.value < lambda {
            lambda = vc.value;
            if cfg.compute_side {
                best_side = Some(vc.side.expect("requested"));
            }
        }
    }
    ctx.stats.record_lambda(lambda);

    let mut engine = ContractionEngine::new();
    let mut pool = ParWorkerPool::new();
    let mut rescue_ws = ScanWorkspace::new();
    let mut current = g.clone();
    // Witness bookkeeping only when a side is requested (as in NOI).
    let mut membership = Membership::identity(if cfg.compute_side { g.n() } else { 0 });

    while current.n() > 2 {
        ctx.check_budget()?;
        ctx.stats.rounds += 1;
        let mut round_span = mincut_obs::span("parcut/round");
        round_span.arg("round", ctx.stats.rounds);
        round_span.arg("n", current.n());
        round_span.arg("lambda_hat", lambda);
        round_span.arg("threads", cfg.threads);
        let out =
            parallel_capforest_pooled(&current, lambda, cfg.threads, cfg.seed, cfg.pq, &mut pool);
        ctx.stats.add_pq_ops(out.pq_ops);
        if out.lambda_hat < lambda {
            lambda = out.lambda_hat;
            ctx.stats.record_lambda(lambda);
            if cfg.compute_side {
                let prefix = out.best_prefix.as_deref().expect("improvement has witness");
                best_side = Some(membership.side_of_vertices(prefix));
            }
        }
        let cuf = out.cuf;

        let (labels, blocks) = if cuf.count() < current.n() {
            cuf.dense_labels()
        } else {
            // Rescue 1: one sequential CAPFOREST pass (Algorithm 2 line 5).
            let start = rng.gen_range(0..current.n() as NodeId);
            let seq = rescue_ws.scan(&current, lambda, start, PqKind::Heap, true);
            ctx.stats.add_pq_ops(rescue_ws.take_ops());
            if seq.lambda_hat < lambda {
                lambda = seq.lambda_hat;
                ctx.stats.record_lambda(lambda);
                if cfg.compute_side {
                    let len = seq.best_prefix_len.expect("improvement has witness");
                    best_side = Some(membership.side_of_vertices(&rescue_ws.order()[..len]));
                }
            }
            if seq.unions == 0 {
                // Rescue 2: a Stoer–Wagner phase always contracts safely.
                ctx.stats.sw_rescues += 1;
                let phase = stoer_wagner_phase(&current, start);
                if phase.cut_of_phase < lambda {
                    lambda = phase.cut_of_phase;
                    ctx.stats.record_lambda(lambda);
                    if cfg.compute_side {
                        best_side = Some(membership.side_of_vertices(&[phase.t]));
                    }
                }
                rescue_ws.uf_mut().union(phase.s, phase.t);
            }
            rescue_ws.uf_mut().dense_labels()
        };

        debug_assert!(blocks < current.n(), "every round must make progress");
        ctx.stats.contracted_vertices += (current.n() - blocks) as u64;
        let next = if cfg.compute_side {
            engine.contract_tracked(&current, &labels, blocks, &mut membership)
        } else {
            engine.contract(&current, &labels, blocks)
        };
        ctx.stats.record_contraction_path(engine.last_path());
        round_span.arg_display("path", engine.last_path());
        engine.recycle(std::mem::replace(&mut current, next));

        // Trivial cuts of the collapsed graph (§3.2).
        if let Some((v, d)) = current.min_weighted_degree() {
            if current.n() >= 2 && d < lambda {
                lambda = d;
                ctx.stats.record_lambda(lambda);
                if cfg.compute_side {
                    best_side = Some(membership.side_of_vertices(&[v]));
                }
            }
        }
    }

    Ok(MinCutResult {
        value: lambda,
        side: best_side,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::generators::known;
    use mincut_graph::EdgeWeight;

    fn all_configs(threads: usize) -> Vec<ParCutConfig> {
        let mut v = Vec::new();
        for pq in PqKind::ALL {
            for use_viecut in [true, false] {
                v.push(ParCutConfig {
                    pq,
                    threads,
                    use_viecut,
                    compute_side: true,
                    seed: 99,
                });
            }
        }
        v
    }

    fn check_all(g: &CsrGraph, expected: EdgeWeight, threads: usize) {
        for cfg in all_configs(threads) {
            let r = parallel_minimum_cut(g, &cfg);
            assert_eq!(r.value, expected, "value mismatch for {cfg:?}");
            let side = r.side.expect("witness requested");
            assert!(g.is_proper_cut(&side));
            assert_eq!(g.cut_value(&side), expected, "witness mismatch for {cfg:?}");
        }
    }

    #[test]
    fn known_families_single_thread() {
        check_all(&known::cycle_graph(12, 3).0, 6, 1);
        check_all(&known::grid_graph(5, 5, 1).0, 2, 1);
        let (g, l) = known::two_communities(8, 6, 2, 3, 1);
        check_all(&g, l, 1);
    }

    #[test]
    fn known_families_multi_thread() {
        let (g, l) = known::ring_of_cliques(6, 5, 3, 1);
        check_all(&g, l, 4);
        let (g, l) = known::two_communities(15, 15, 3, 2, 1);
        check_all(&g, l, 4);
        check_all(&known::grid_graph(8, 8, 2).0, 4, 4);
    }

    #[test]
    fn matches_sequential_noi_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(31337);
        for trial in 0..15 {
            let n = rng.gen_range(20..60);
            let mut edges = Vec::new();
            for v in 1..n as NodeId {
                edges.push((rng.gen_range(0..v), v, rng.gen_range(1..5)));
            }
            for _ in 0..3 * n {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                if u != v {
                    edges.push((u, v, rng.gen_range(1..5)));
                }
            }
            let g = CsrGraph::from_edges(n, &edges);
            let seq = crate::noi::noi_minimum_cut(&g, &crate::noi::NoiConfig::default());
            for threads in [1, 2, 4] {
                let par = parallel_minimum_cut(
                    &g,
                    &ParCutConfig {
                        threads,
                        seed: trial,
                        ..Default::default()
                    },
                );
                assert_eq!(par.value, seq.value, "trial {trial}, {threads} threads");
                assert_eq!(g.cut_value(&par.side.unwrap()), par.value);
            }
        }
    }

    #[test]
    fn tiny_graph() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 9)]);
        let r = parallel_minimum_cut(&g, &ParCutConfig::default());
        assert_eq!(r.value, 9);
    }
}
