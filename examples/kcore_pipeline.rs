//! The paper's instance-preparation pipeline (Appendix A.2), end to end:
//! take a large skewed graph, extract k-cores for increasing k, keep the
//! largest connected component, and compute λ and δ for each — the exact
//! procedure that generated the paper's Table 1, including the selection
//! rule "cores where the minimum cut is not equal to the minimum degree"
//! (non-trivial cuts are the interesting benchmark cases).
//!
//! Each core is solved through the default kernelization pipeline
//! (`SolveOptions::reductions`), and the table shows how small the
//! kernel the solver actually saw was — on these satellite-clique cores
//! the reductions usually collapse the graph outright.
//!
//! Run with: `cargo run --release --example kcore_pipeline`

use sm_mincut::graph::generators::{barabasi_albert, gnm};
use sm_mincut::graph::kcore::{core_numbers, k_core_lcc};
use sm_mincut::{GraphBuilder, NodeId, Session, SolveOptions};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A social-network-like graph with a non-trivial core hierarchy:
/// preferential attachment (power-law hubs) overlaid with a uniform
/// random layer (degree variance), plus weakly-attached dense satellite
/// cliques — the structure that gives real web/social cores their
/// λ ≪ δ minimum cuts (see the substitution table in the
/// `mincut_bench::instances` module docs).
fn social_graph(n: usize, seed: u64) -> sm_mincut::CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ba = barabasi_albert(n, 4, &mut rng);
    let overlay = gnm(n, 4 * n, &mut rng);
    // (clique size, attachment edges): size-s cliques survive k ≤ s−1.
    let satellites: &[(u32, u32)] = &[(8, 2), (10, 3), (12, 4), (16, 5)];
    let extra: u32 = satellites.iter().map(|&(s, _)| s).sum();
    let mut seen = std::collections::HashSet::new();
    let mut b = GraphBuilder::with_capacity(n + extra as usize, ba.m() + overlay.m() + 256);
    for (u, v, _) in ba.edges().chain(overlay.edges()) {
        if seen.insert((u, v)) {
            b.add_edge(u, v, 1);
        }
    }
    let mut base = n as u32;
    for &(s, attach) in satellites {
        for i in 0..s {
            for j in i + 1..s {
                b.add_edge(base + i, base + j, 1);
            }
        }
        for a in 0..attach {
            b.add_edge(base + a, a, 1);
        }
        base += s;
    }
    b.build()
}

fn main() {
    let g = social_graph(1 << 13, 2018);
    println!(
        "input graph: n = {}, m = {}, degeneracy = {}",
        g.n(),
        g.m(),
        core_numbers(&g).iter().max().unwrap()
    );
    println!(
        "\n{:>4} {:>8} {:>9} {:>6} {:>6} {:>9}  note",
        "k", "core n", "core m", "λ", "δ", "kernel n"
    );

    for k in [5u32, 6, 7, 8, 9, 10] {
        let (core, _orig_ids) = k_core_lcc(&g, k);
        if core.n() < 4 {
            println!("{k:>4} (core empty or trivial)");
            continue;
        }
        let delta = (0..core.n() as NodeId)
            .map(|v| core.weighted_degree(v))
            .min()
            .unwrap();
        // The default options run the kernelization pipeline first; the
        // stats report says how much of the core it dissolved.
        let outcome = Session::new(&core)
            .options(SolveOptions::new().seed(2018))
            .run("noi-viecut")
            .expect("core is connected with n >= 2");
        let cut = &outcome.cut;
        assert!(cut.verify(&core));
        // Every k-core has min degree >= k by definition.
        assert!(core.min_degree().unwrap() >= k as usize);
        let note = if cut.value == delta {
            "trivial (λ = δ): paper would skip this core"
        } else {
            "NON-TRIVIAL: paper-style benchmark instance"
        };
        println!(
            "{k:>4} {:>8} {:>9} {:>6} {:>6} {:>9}  {note}",
            core.n(),
            core.m(),
            cut.value,
            delta,
            outcome.stats.kernel_n,
        );
    }
}
