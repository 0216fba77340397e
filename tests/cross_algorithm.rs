//! Cross-crate integration: every exact algorithm must agree — with each
//! other, with the brute-force oracle, and with its own witness — on
//! randomly generated weighted graphs. This is the strongest correctness
//! statement the workspace makes: seven independent implementations
//! (bounded/unbounded NOI × three queues, ParCut, Stoer–Wagner,
//! Hao–Orlin) agreeing on thousands of instances.

use proptest::prelude::*;
use sm_mincut::graph::generators::known::brute_force_mincut;
use sm_mincut::{CsrGraph, MinCutResult, NodeId, PqKind, Session, SolveOptions};

/// Strategy: a random connected weighted graph with n in [2, 10] for the
/// brute-force comparison tier.
fn small_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..10).prop_flat_map(|n| {
        let tree_edges = proptest::collection::vec(1u64..8, n - 1);
        let extra =
            proptest::collection::vec((0..n as NodeId, 0..n as NodeId, 1u64..8), 0..(n * 2));
        (Just(n), tree_edges, extra).prop_map(|(n, tree_w, extra)| {
            let mut edges = Vec::new();
            for (v, w) in (1..n as NodeId).zip(tree_w) {
                edges.push((v / 2, v, w)); // binary-tree backbone: connected
            }
            for (u, v, w) in extra {
                if u != v {
                    edges.push((u, v, w));
                }
            }
            CsrGraph::from_edges(n, &edges)
        })
    })
}

/// The exact variants by registry name; ParCutλ̂ runs with two workers.
fn exact_algorithms() -> Vec<String> {
    let mut v: Vec<String> = [
        "NOI-HNSS",
        "NOI-HNSS-VieCut",
        "StoerWagner",
        "HO-CGKLS",
        "ParCutλ̂-BQueue",
    ]
    .map(String::from)
    .into();
    for pq in PqKind::ALL {
        v.push(format!("NOIλ̂-{pq}"));
        v.push(format!("NOIλ̂-{pq}-VieCut"));
    }
    v
}

/// Solves `g` with the registry solver `name` under `opts` plus `seed`.
fn solve(g: &CsrGraph, name: &str, opts: SolveOptions, seed: u64) -> MinCutResult {
    Session::new(g)
        .options(opts.seed(seed))
        .run(name)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .cut
}

/// [`solve`] for the exact variants.
fn solve_exact(g: &CsrGraph, name: &str, seed: u64) -> MinCutResult {
    solve(g, name, SolveOptions::new().threads(2), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_algorithms_match_brute_force(g in small_graph(), seed in 0u64..1000) {
        let expected = brute_force_mincut(&g);
        for name in exact_algorithms() {
            let r = solve_exact(&g, &name, seed);
            prop_assert_eq!(r.value, expected, "{} on {:?}", name, g);
            prop_assert!(r.verify(&g), "{} witness", name);
        }
    }

    #[test]
    fn inexact_algorithms_upper_bound(g in small_graph(), seed in 0u64..1000) {
        let expected = brute_force_mincut(&g);
        let epsilon = 0.5;
        for (name, opts) in [
            ("VieCut", SolveOptions::new()),
            ("KargerStein", SolveOptions::new().repetitions(2)),
            ("Matula", SolveOptions::new().epsilon(epsilon)),
        ] {
            let r = solve(&g, name, opts, seed);
            prop_assert!(r.value >= expected, "{} went below λ", name);
            prop_assert!(r.verify(&g), "{} must report an actual cut", name);
            if name == "Matula" {
                let bound = ((2.0 + epsilon) * expected as f64).floor() as u64;
                prop_assert!(r.value <= bound, "(2+ε) violated by {}", name);
            }
        }
    }
}

/// Medium tier: no brute force, but all exact algorithms must agree among
/// themselves on graphs with up to a few hundred vertices.
#[test]
fn exact_algorithms_agree_on_medium_random_graphs() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(20190522);
    for trial in 0..8 {
        let n = rng.gen_range(50..250);
        let mut edges = Vec::new();
        for v in 1..n as NodeId {
            edges.push((rng.gen_range(0..v), v, rng.gen_range(1..10)));
        }
        for _ in 0..4 * n {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if u != v {
                edges.push((u, v, rng.gen_range(1..10)));
            }
        }
        let g = CsrGraph::from_edges(n, &edges);
        let mut value = None;
        for name in exact_algorithms() {
            let r = solve_exact(&g, &name, trial);
            assert!(r.verify(&g), "{name} witness, trial {trial}");
            match value {
                None => value = Some(r.value),
                Some(v) => assert_eq!(v, r.value, "{name} disagrees, trial {trial}"),
            }
        }
    }
}

/// The paper's RHG configuration: exact algorithms agree on a real
/// power-law-5 hyperbolic instance.
#[test]
fn exact_algorithms_agree_on_rhg() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sm_mincut::graph::generators::{random_hyperbolic_graph, RhgParams};
    let mut rng = SmallRng::seed_from_u64(5);
    let g = random_hyperbolic_graph(&RhgParams::paper(1 << 10, 12.0), &mut rng);
    let mut value = None;
    for name in exact_algorithms() {
        let r = solve_exact(&g, &name, 17);
        assert!(r.verify(&g), "{name}");
        match value {
            None => value = Some(r.value),
            Some(v) => assert_eq!(v, r.value, "{name}"),
        }
    }
}
