//! Karger–Stein recursive random contraction (comparator, §2.2).
//!
//! Contract uniformly weight-proportional random edges down to
//! `⌈1 + n/√2⌉` vertices, recurse twice, keep the better result; repeat
//! the whole procedure to boost the success probability. Returns the
//! minimum cut with probability ≥ 1 − (1 − 1/Θ(log n))^repetitions; the
//! paper (and the studies it cites) found it orders of magnitude slower
//! than NOI in practice, which our benchmark harness reproduces.

use mincut_ds::UnionFind;
use mincut_graph::{ContractionEngine, CsrGraph, EdgeWeight, Membership, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::MinCutError;
use crate::solver::disconnected_cut;
use crate::stats::{SolveContext, SolverStats};
use crate::MinCutResult;

/// Configuration for [`karger_stein`].
#[derive(Clone, Debug)]
pub struct KargerSteinConfig {
    /// Independent repetitions of the full recursive procedure. The
    /// classical recommendation is Θ(log² n); each repetition succeeds
    /// with probability Ω(1/log n).
    pub repetitions: usize,
    pub seed: u64,
    pub compute_side: bool,
}

impl Default for KargerSteinConfig {
    fn default() -> Self {
        KargerSteinConfig {
            repetitions: 16,
            seed: 0xca59e5,
            compute_side: true,
        }
    }
}

/// Monte-Carlo minimum cut. The returned value is always the value of an
/// actual cut (an upper bound on λ); it equals λ with high probability for
/// sufficient repetitions. Requires n ≥ 2; handles disconnected inputs.
pub fn karger_stein(g: &CsrGraph, cfg: &KargerSteinConfig) -> MinCutResult {
    assert!(g.n() >= 2, "minimum cut needs at least two vertices");
    disconnected_cut(g, cfg.compute_side).unwrap_or_else(|| {
        let mut stats = SolverStats::scratch();
        let mut ctx = SolveContext::new(&mut stats);
        karger_stein_connected(g, cfg, &mut ctx)
            .expect("Karger-Stein without a time budget cannot fail")
    })
}

/// Algorithm body for inputs already known to be connected with n ≥ 2
/// (the session preflight guarantees both), skipping the redundant
/// component scan.
pub(crate) fn karger_stein_connected(
    g: &CsrGraph,
    cfg: &KargerSteinConfig,
    ctx: &mut SolveContext<'_>,
) -> Result<MinCutResult, MinCutError> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut engine = ContractionEngine::new();
    let mut best = EdgeWeight::MAX;
    let mut best_side: Option<Vec<bool>> = None;
    for _ in 0..cfg.repetitions.max(1) {
        ctx.check_budget()?;
        ctx.stats.rounds += 1;
        let membership = Membership::identity(g.n());
        recursive(
            g.clone(),
            membership,
            &mut engine,
            &mut rng,
            &mut best,
            &mut best_side,
        );
        ctx.stats.record_lambda(best);
    }
    Ok(MinCutResult {
        value: best,
        side: cfg
            .compute_side
            .then(|| best_side.expect("at least one cut examined")),
    })
}

fn recursive(
    g: CsrGraph,
    membership: Membership,
    engine: &mut ContractionEngine,
    rng: &mut SmallRng,
    best: &mut EdgeWeight,
    best_side: &mut Option<Vec<bool>>,
) {
    let n = g.n();
    if n <= 6 {
        brute_force_small(&g, &membership, best, best_side);
        engine.recycle(g);
        return;
    }
    // ⌈1 + n/√2⌉ — the classical recursion size.
    let target = (1.0 + n as f64 / std::f64::consts::SQRT_2).ceil() as usize;
    let target = target.min(n - 1).max(2);
    for _ in 0..2 {
        if let Some((gc, mc)) = contract_random_to(&g, &membership, target, engine, rng) {
            recursive(gc, mc, engine, rng, best, best_side);
        }
    }
    // This branch's graph retires here; its buffers seed the next leaf.
    engine.recycle(g);
}

/// Contracts weight-proportional random edges until `target` vertices
/// remain. Returns `None` if the graph runs out of edges first (it became
/// disconnected into `> target` pieces — impossible for connected inputs).
fn contract_random_to(
    g: &CsrGraph,
    membership: &Membership,
    target: usize,
    engine: &mut ContractionEngine,
    rng: &mut SmallRng,
) -> Option<(CsrGraph, Membership)> {
    let n = g.n();
    let mut uf = UnionFind::new(n);
    let mut edges: Vec<(NodeId, NodeId, EdgeWeight)> = g.edges().collect();
    let mut count = n;
    while count > target {
        if edges.is_empty() {
            return None;
        }
        // Cumulative weights for O(log m) weight-proportional sampling.
        let mut cum: Vec<u128> = Vec::with_capacity(edges.len());
        let mut acc: u128 = 0;
        for e in &edges {
            acc += e.2 as u128;
            cum.push(acc);
        }
        let mut consecutive_rejects = 0;
        while count > target {
            let pick = rng.gen_range(0..acc);
            let idx = cum.partition_point(|&c| c <= pick);
            let (u, v, _) = edges[idx];
            if uf.union(u, v) {
                count -= 1;
                consecutive_rejects = 0;
            } else {
                consecutive_rejects += 1;
                if consecutive_rejects >= 8 {
                    break; // too many internal edges: rebuild the edge list
                }
            }
        }
        if count > target {
            edges.retain(|&(u, v, _)| uf.find(u) != uf.find(v));
        }
    }
    let (labels, blocks) = uf.dense_labels();
    let mut mc = membership.clone();
    let gc = engine.contract_tracked(g, &labels, blocks, &mut mc);
    Some((gc, mc))
}

/// Exhaustive minimum cut of a ≤ 6-vertex graph, mapped through the
/// membership to an original-vertex witness.
fn brute_force_small(
    g: &CsrGraph,
    membership: &Membership,
    best: &mut EdgeWeight,
    best_side: &mut Option<Vec<bool>>,
) {
    let n = g.n();
    debug_assert!((2..=6).contains(&n));
    for mask in 1u32..(1 << (n - 1)) {
        let side: Vec<bool> = (0..n).map(|v| v < n - 1 && (mask >> v) & 1 == 1).collect();
        let value = g.cut_value(&side);
        if value < *best {
            *best = value;
            *best_side = Some(membership.side_of_bitmap(&side));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::generators::known;

    fn check(g: &CsrGraph, expected: EdgeWeight, reps: usize) {
        let r = karger_stein(
            g,
            &KargerSteinConfig {
                repetitions: reps,
                seed: 7,
                compute_side: true,
            },
        );
        assert_eq!(r.value, expected);
        let side = r.side.unwrap();
        assert!(g.is_proper_cut(&side));
        assert_eq!(g.cut_value(&side), expected);
    }

    #[test]
    fn exact_on_small_known_families() {
        check(&known::path_graph(12, 2).0, 2, 12);
        check(&known::cycle_graph(16, 3).0, 6, 12);
        check(&known::complete_graph(9, 1).0, 8, 12);
        let (g, l) = known::two_communities(8, 8, 1, 3, 2);
        check(&g, l, 12);
    }

    #[test]
    fn value_is_always_a_real_cut_even_with_one_repetition() {
        let (g, lambda) = known::ring_of_cliques(5, 4, 3, 1);
        let r = karger_stein(
            &g,
            &KargerSteinConfig {
                repetitions: 1,
                seed: 3,
                compute_side: true,
            },
        );
        assert!(
            r.value >= lambda,
            "Monte Carlo may overshoot, never undershoot"
        );
        assert_eq!(g.cut_value(&r.side.unwrap()), r.value);
    }
}
