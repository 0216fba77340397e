//! Network reliability (the paper's first motivating application, §1):
//! "assuming equal failure probability edges, the smallest edge cut in
//! the network has the highest chance to disconnect the network".
//!
//! We model a backbone network as a random hyperbolic graph (power-law
//! degrees, small diameter — like real internet topologies), find its
//! exact minimum cut in parallel, and report the critical edge set whose
//! simultaneous failure partitions the network.
//!
//! Run with: `cargo run --release --example network_reliability`

use sm_mincut::graph::components::largest_component;
use sm_mincut::graph::generators::{random_hyperbolic_graph, RhgParams};
use sm_mincut::{Session, SolveOptions};

use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // A 4096-router topology with average degree 16, power-law exponent 5
    // (the paper's RHG configuration, which avoids trivial cuts). The
    // generator leaves some routers outside the main component (905 for
    // this seed); reliability is a question about the connected
    // backbone, so keep its largest component (on the whole graph the
    // answer would be λ = 0, "already disconnected").
    let mut rng = SmallRng::seed_from_u64(2019);
    let generated = random_hyperbolic_graph(&RhgParams::paper(1 << 12, 16.0), &mut rng);
    let (network, _) = largest_component(&generated);
    println!(
        "backbone: {} of {} routers connected, {} links, avg degree {:.1}",
        network.n(),
        generated.n(),
        network.m(),
        network.avg_degree()
    );

    let t0 = std::time::Instant::now();
    let threads = std::thread::available_parallelism().map_or(2, |p| p.get());
    let cut = Session::new(&network)
        .options(SolveOptions::new().threads(threads))
        .run("ParCutλ̂-BQueue")
        .expect("the backbone has n ≥ 2")
        .cut;
    println!(
        "minimum cut λ = {} (found in {:.1} ms)",
        cut.value,
        t0.elapsed().as_secs_f64() * 1e3
    );
    assert!(cut.verify(&network));
    assert!(cut.value > 0, "the backbone is connected");

    // The critical links: every edge crossing the optimal bipartition.
    let side = cut.side.as_ref().unwrap();
    let critical: Vec<(u32, u32, u64)> = network
        .edges()
        .filter(|&(u, v, _)| side[u as usize] != side[v as usize])
        .collect();
    let small = side
        .iter()
        .filter(|&&s| s)
        .count()
        .min(network.n() - side.iter().filter(|&&s| s).count());
    println!(
        "{} simultaneous link failures disconnect {} routers from the rest:",
        critical.len(),
        small
    );
    for (u, v, _) in critical.iter().take(16) {
        println!("  link {u} -- {v}");
    }
    if critical.len() > 16 {
        println!("  ... and {} more", critical.len() - 16);
    }
    assert!(!critical.is_empty());
    assert_eq!(critical.iter().map(|e| e.2).sum::<u64>(), cut.value);

    // Sanity: the trivial bound (weakest single router) is usually NOT
    // the answer for this family — the interesting case for reliability.
    let min_deg = network.min_weighted_degree().unwrap().1;
    println!("minimum degree δ = {min_deg} (trivial upper bound; λ ≤ δ always)");
}
