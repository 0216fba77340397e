//! Property tests for the contraction substrate (§3.2): sequential and
//! parallel contraction agree, cut values of cluster-respecting cuts are
//! preserved, total boundary weight is conserved, and the membership
//! tracker composes correctly over multiple rounds.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sm_mincut::algorithms::{Membership, SolveContext};
use sm_mincut::ds::UnionFind;
use sm_mincut::graph::contract::{contract, contract_parallel, ContractionEngine, ContractionPath};
use sm_mincut::graph::generators::known::brute_force_mincut;
use sm_mincut::{CsrGraph, NodeId, ReductionPipeline, SolverStats};

/// A sparse random graph above the parallel threshold: local edges plus
/// random chords, with every 16th vertex (on average) left isolated.
fn large_graph(n: usize, rng: &mut SmallRng) -> CsrGraph {
    let isolated: Vec<bool> = (0..n).map(|_| rng.gen_range(0..16u32) == 0).collect();
    let mut edges = Vec::with_capacity(4 * n);
    for v in 0..n {
        if isolated[v] {
            continue;
        }
        for _ in 0..2 {
            let near = (v + rng.gen_range(1..4usize)) % n;
            let far = rng.gen_range(0..n);
            for u in [near, far] {
                if u != v && !isolated[u] {
                    edges.push((v as NodeId, u as NodeId, rng.gen_range(1..9u64)));
                }
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// The labellings the parallel path must reproduce exactly, as
/// `(name, labels, num_blocks)`.
fn large_labellings(g: &CsrGraph, rng: &mut SmallRng) -> Vec<(&'static str, Vec<NodeId>, usize)> {
    let n = g.n();
    // Near-identity: a handful of unions along random edges, numbered
    // by first appearance like the reduction rounds' labels.
    let mut uf = UnionFind::new(n);
    for _ in 0..rng.gen_range(1..40) {
        let u = rng.gen_range(0..n) as NodeId;
        if let Some(&v) = g.neighbors(u).first() {
            uf.union(u, v);
        }
    }
    let (near, near_blocks) = uf.dense_labels();
    // Random many-member blocks: rows concatenate several members'
    // arcs out of order, so they need sorting.
    let k = rng.gen_range(2..n / 2);
    let random: Vec<NodeId> = (0..n).map(|_| rng.gen_range(0..k) as NodeId).collect();
    // Every odd block id unused: empty rows between the live ones.
    let sparse: Vec<NodeId> = random.iter().map(|&b| 2 * b).collect();
    // A random permutation: one member per block, non-monotone labels.
    let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    vec![
        ("identity", (0..n as NodeId).collect(), n),
        ("near-identity", near, near_blocks),
        ("random", random, k),
        ("empty-rows", sparse, 2 * k),
        ("permutation", perm, n),
        ("single-block", vec![0; n], 1),
    ]
}

fn graph_and_labels() -> impl Strategy<Value = (CsrGraph, Vec<NodeId>, usize)> {
    (4usize..40).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0..n as NodeId, 0..n as NodeId, 1u64..9), n..(3 * n));
        let blocks = 2usize..=n.min(8);
        (Just(n), edges, blocks).prop_flat_map(|(n, edges, blocks)| {
            proptest::collection::vec(0..blocks as NodeId, n).prop_map(move |mut raw| {
                // Force every block id in [0, blocks) to appear so the
                // labelling is dense.
                let len = raw.len();
                for b in 0..blocks {
                    raw[b % len] = b as NodeId;
                }
                let g = CsrGraph::from_edges(
                    n,
                    &edges
                        .iter()
                        .copied()
                        .filter(|&(u, v, _)| u != v)
                        .collect::<Vec<_>>(),
                );
                (g, raw, blocks)
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sequential_equals_parallel((g, labels, blocks) in graph_and_labels()) {
        let s = contract(&g, &labels, blocks);
        let p = contract_parallel(&g, &labels, blocks);
        prop_assert_eq!(s, p);
    }

    #[test]
    fn block_respecting_cuts_preserved((g, labels, blocks) in graph_and_labels()) {
        let c = contract(&g, &labels, blocks);
        // Any bipartition of the blocks lifts to a cut of g with the same
        // value; check a handful of deterministic bipartitions.
        for mask in 1u32..(1u32 << (blocks - 1)).min(16) {
            let block_side: Vec<bool> = (0..blocks).map(|b| (mask >> b) & 1 == 1).collect();
            let lifted: Vec<bool> = labels.iter().map(|&l| block_side[l as usize]).collect();
            prop_assert_eq!(c.cut_value(&block_side), g.cut_value(&lifted));
        }
    }

    #[test]
    fn contraction_conserves_cross_block_weight((g, labels, blocks) in graph_and_labels()) {
        let c = contract(&g, &labels, blocks);
        let cross: u64 = g
            .edges()
            .filter(|&(u, v, _)| labels[u as usize] != labels[v as usize])
            .map(|(_, _, w)| w)
            .sum();
        prop_assert_eq!(c.total_edge_weight(), cross);
        prop_assert_eq!(c.n(), blocks);
    }

    /// All four accumulation paths — hash, radix-sort, flat-matrix and
    /// parallel — must produce fingerprint-identical `CsrGraph`s on
    /// random multigraphs, warm buffers included (graphs this small send
    /// the parallel path to its sequential fallback; the bucketed build
    /// itself is covered by `parallel_path_matches_sequential_above_threshold`
    /// below). The density
    /// heuristic may switch paths between rounds, so any divergence
    /// would break bit-determinism of every solver.
    #[test]
    fn sort_matrix_and_hash_paths_are_fingerprint_identical((g, labels, blocks) in graph_and_labels()) {
        let mut engine = ContractionEngine::new();
        let h = engine.contract_sequential(&g, &labels, blocks);
        let s = engine.contract_sorted(&g, &labels, blocks);
        prop_assert_eq!(h.fingerprint(), s.fingerprint());
        prop_assert_eq!(&h, &s);
        let m = engine.contract_matrix(&g, &labels, blocks);
        prop_assert_eq!(h.fingerprint(), m.fingerprint());
        prop_assert_eq!(&h, &m);
        let p = engine.contract_parallel(&g, &labels, blocks);
        prop_assert_eq!(h.fingerprint(), p.fingerprint());
        // A second sorted round over the contracted graph reuses the warm
        // radix scratch; it must still match a fresh hash contraction.
        if blocks >= 2 {
            let labels2: Vec<NodeId> = (0..blocks as NodeId).map(|v| v % 2).collect();
            let s2 = engine.contract_sorted(&h, &labels2, 2);
            let m2 = engine.contract_matrix(&h, &labels2, 2);
            let h2 = contract(&h, &labels2, 2);
            prop_assert_eq!(h2.fingerprint(), s2.fingerprint());
            prop_assert_eq!(h2.fingerprint(), m2.fingerprint());
        }
    }

    /// The engine's reused-scratch output is bit-identical to the old
    /// free functions, including across recycled rounds.
    #[test]
    fn engine_bit_identical_to_free_functions((g, labels, blocks) in graph_and_labels()) {
        let mut engine = ContractionEngine::new();
        let s = contract(&g, &labels, blocks);
        let es = engine.contract_sequential(&g, &labels, blocks);
        prop_assert_eq!(&s, &es);
        let p = contract_parallel(&g, &labels, blocks);
        let ep = engine.contract_parallel(&g, &labels, blocks);
        prop_assert_eq!(&p, &ep);
        prop_assert_eq!(&s, &p);
        // A second, recycled round over the contracted graph: the warm
        // buffers must not leak state between rounds.
        engine.recycle(ep);
        if blocks >= 2 {
            let labels2: Vec<NodeId> = (0..blocks as NodeId).map(|v| v % 2).collect();
            let s2 = contract(&es, &labels2, 2);
            let e2 = engine.contract(&es, &labels2, 2);
            prop_assert_eq!(s2, e2);
        }
    }

    /// The kernelization pipeline preserves λ: min(λ̂, λ(kernel)) equals
    /// the brute-force minimum cut, and λ̂ is backed by a real witness.
    #[test]
    fn reduction_pipeline_preserves_lambda((g, _, _) in graph_and_labels()) {
        prop_assume!(g.n() >= 2 && g.n() <= 24);
        let lambda = brute_force_mincut(&g);
        let mut stats = SolverStats::new("reduce".into(), g.n(), g.m());
        let mut ctx = SolveContext::new(&mut stats);
        let red = ReductionPipeline::standard().run(&g, None, &mut ctx).unwrap();
        let side = red.side.as_ref().expect("pipeline tracks witnesses");
        prop_assert!(g.is_proper_cut(side));
        prop_assert_eq!(g.cut_value(side), red.lambda_hat);
        let kernel_lambda = if red.kernel.n() >= 2 {
            brute_force_mincut(&red.kernel)
        } else {
            u64::MAX
        };
        prop_assert_eq!(red.lambda_hat.min(kernel_lambda), lambda);
    }

    #[test]
    fn membership_composes((g, labels, blocks) in graph_and_labels()) {
        let mut m = Membership::identity(g.n());
        m.contract(&labels, blocks);
        // Every original vertex appears in exactly one block list.
        let mut seen = vec![0usize; g.n()];
        for b in 0..blocks as NodeId {
            for &orig in m.members(b) {
                seen[orig as usize] += 1;
                prop_assert_eq!(labels[orig as usize], b);
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
        // A second round: merge everything into one block.
        m.contract(&vec![0; blocks], 1);
        prop_assert_eq!(m.members(0).len(), g.n());
    }
}

proptest! {
    // Graphs of 4096+ vertices: a few cases keep the suite quick.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Above the threshold `contract_parallel` runs the bucketed row
    /// build. One warm engine contracts every labelling in turn (its
    /// stale position arrays and recycled output buffer included), and
    /// each result must equal the sequential hash path bit for bit.
    #[test]
    fn parallel_path_matches_sequential_above_threshold(
        (n, seed) in (ContractionEngine::SEQUENTIAL_FALLBACK_THRESHOLD..=12_000, any::<u64>())
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = large_graph(n, &mut rng);
        let mut engine = ContractionEngine::new();
        for (name, labels, blocks) in large_labellings(&g, &mut rng) {
            let s = contract(&g, &labels, blocks);
            let p = engine.contract_parallel(&g, &labels, blocks);
            prop_assert_eq!(engine.last_path(), ContractionPath::Parallel);
            prop_assert_eq!(s.fingerprint(), p.fingerprint(), "{} labelling", name);
            prop_assert_eq!(&s, &p, "{} labelling", name);
            engine.recycle(p);
        }
    }
}
