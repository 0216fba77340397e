//! Deterministic graph families with *provable* minimum cut values.
//!
//! Every constructor returns `(graph, λ)` where λ is the exact minimum cut,
//! established by a short argument documented on the constructor. These are
//! the ground-truth fixtures for the solver test suites.

use crate::{CsrGraph, EdgeWeight, GraphBuilder, NodeId};

/// Path v0 − v1 − … − v(n−1), all edges weight `w`. λ = `w` (cut any edge);
/// every cut must cross at least one edge. Requires n ≥ 2.
pub fn path_graph(n: usize, w: EdgeWeight) -> (CsrGraph, EdgeWeight) {
    assert!(n >= 2 && w >= 1);
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for v in 0..n as NodeId - 1 {
        b.add_edge(v, v + 1, w);
    }
    (b.build(), w)
}

/// Cycle on n vertices, all edges weight `w`. λ = `2w`: any proper cut
/// crosses an even, non-zero number of cycle edges. Requires n ≥ 3.
pub fn cycle_graph(n: usize, w: EdgeWeight) -> (CsrGraph, EdgeWeight) {
    assert!(n >= 3 && w >= 1);
    let mut b = GraphBuilder::with_capacity(n, n);
    for v in 0..n as NodeId {
        b.add_edge(v, (v + 1) % n as NodeId, w);
    }
    (b.build(), 2 * w)
}

/// Complete graph K_n with uniform weight `w`. λ = `(n−1)·w`: a side with k
/// vertices cuts k(n−k)·w ≥ (n−1)·w, with equality at k = 1. Requires n ≥ 2.
pub fn complete_graph(n: usize, w: EdgeWeight) -> (CsrGraph, EdgeWeight) {
    assert!(n >= 2 && w >= 1);
    let mut b = GraphBuilder::with_capacity(n, n * (n - 1) / 2);
    for u in 0..n as NodeId {
        for v in u + 1..n as NodeId {
            b.add_edge(u, v, w);
        }
    }
    (b.build(), (n as EdgeWeight - 1) * w)
}

/// Star: centre 0 connected to n−1 leaves with weight `w`. λ = `w`
/// (isolate a leaf). Requires n ≥ 2.
pub fn star_graph(n: usize, w: EdgeWeight) -> (CsrGraph, EdgeWeight) {
    assert!(n >= 2 && w >= 1);
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for v in 1..n as NodeId {
        b.add_edge(0, v, w);
    }
    (b.build(), w)
}

/// rows×cols grid with uniform weight `w`, rows, cols ≥ 2. λ = `2w`:
/// isolating a corner cuts two edges; the grid is 2-edge-connected so no
/// cut crosses fewer than two.
pub fn grid_graph(rows: usize, cols: usize, w: EdgeWeight) -> (CsrGraph, EdgeWeight) {
    assert!(rows >= 2 && cols >= 2 && w >= 1);
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut b = GraphBuilder::with_capacity(rows * cols, 2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), w);
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), w);
            }
        }
    }
    (b.build(), 2 * w)
}

/// Two cliques K_n1 and K_n2 (intra-clique weight `intra`) joined by
/// `bridges` edges of weight `bridge_w` between distinct vertex pairs.
/// λ = `bridges·bridge_w`, provided that is strictly below every other cut:
/// asserted via `(n1−1)·intra` and `(n2−1)·intra` (cheapest cuts that split
/// a clique). The minimum cut is unique and separates the cliques.
pub fn two_communities(
    n1: usize,
    n2: usize,
    bridges: usize,
    intra: EdgeWeight,
    bridge_w: EdgeWeight,
) -> (CsrGraph, EdgeWeight) {
    assert!(n1 >= 2 && n2 >= 2);
    assert!(bridges >= 1 && bridges <= n1.min(n2));
    let lambda = bridges as EdgeWeight * bridge_w;
    // Any cut splitting clique 1 costs ≥ (n1-1)*intra (it isolates at least
    // one clique-1 vertex from some clique-1 vertex, and clique connectivity
    // is (n1-1)*intra), and may additionally pay bridge edges.
    assert!(
        lambda < (n1 as EdgeWeight - 1) * intra && lambda < (n2 as EdgeWeight - 1) * intra,
        "bridge cut must be cheaper than splitting either clique"
    );
    let n = n1 + n2;
    let mut b = GraphBuilder::with_capacity(n, n1 * n1 / 2 + n2 * n2 / 2 + bridges);
    for u in 0..n1 as NodeId {
        for v in u + 1..n1 as NodeId {
            b.add_edge(u, v, intra);
        }
    }
    for u in 0..n2 as NodeId {
        for v in u + 1..n2 as NodeId {
            b.add_edge(n1 as NodeId + u, n1 as NodeId + v, intra);
        }
    }
    for i in 0..bridges {
        b.add_edge(i as NodeId, (n1 + i) as NodeId, bridge_w);
    }
    (b.build(), lambda)
}

/// `k` cliques of size `s` arranged in a ring, consecutive cliques joined
/// by one edge of weight `inter`. λ = `2·inter` (cut the ring twice),
/// provided isolating any set inside a clique is more expensive:
/// asserted via `(s−1)·intra > 2·inter`. Requires k ≥ 3, s ≥ 2.
pub fn ring_of_cliques(
    k: usize,
    s: usize,
    intra: EdgeWeight,
    inter: EdgeWeight,
) -> (CsrGraph, EdgeWeight) {
    assert!(k >= 3 && s >= 2);
    assert!(
        (s as EdgeWeight - 1) * intra > 2 * inter,
        "clique connectivity must exceed the ring cut"
    );
    let n = k * s;
    let mut b = GraphBuilder::with_capacity(n, k * s * s / 2 + k);
    let id = |c: usize, i: usize| (c * s + i) as NodeId;
    for c in 0..k {
        for i in 0..s {
            for j in i + 1..s {
                b.add_edge(id(c, i), id(c, j), intra);
            }
        }
        // Link vertex 0 of this clique to vertex 1 of the next.
        b.add_edge(id(c, 0), id((c + 1) % k, 1 % s), inter);
    }
    (b.build(), 2 * inter)
}

/// Barbell: two cliques K_n1, K_n2 (weight `intra`) joined by a single
/// bridge of weight `bridge_w`. λ = `bridge_w`, asserted cheaper than
/// splitting either clique.
pub fn barbell(
    n1: usize,
    n2: usize,
    intra: EdgeWeight,
    bridge_w: EdgeWeight,
) -> (CsrGraph, EdgeWeight) {
    two_communities(n1, n2, 1, intra, bridge_w)
}

/// Brute-force minimum cut by enumerating all 2^(n−1) − 1 proper cuts.
/// Only usable for tiny graphs (n ≤ 24); this is the ground-truth oracle
/// used by the solver test suites across the workspace.
pub fn brute_force_mincut(g: &CsrGraph) -> EdgeWeight {
    let mut best = EdgeWeight::MAX;
    for_each_cut(g, |value, _| best = best.min(value));
    best
}

/// Brute-force enumeration of **every** minimum cut: `(λ, sides)`, each
/// side canonicalised to `side[0] == false` and the list sorted, so two
/// enumerations compare with `==`. Same n ≤ 24 limit as
/// [`brute_force_mincut`]; this is the ground-truth oracle the cactus
/// subsystem's bijection is tested against.
pub fn brute_force_all_min_cuts(g: &CsrGraph) -> (EdgeWeight, Vec<Vec<bool>>) {
    let mut best = EdgeWeight::MAX;
    let mut sides: Vec<Vec<bool>> = Vec::new();
    for_each_cut(g, |value, side| {
        if value > best {
            return;
        }
        if value < best {
            best = value;
            sides.clear();
        }
        let flip = side[0];
        sides.push(side.iter().map(|&b| b != flip).collect());
    });
    sides.sort();
    (best, sides)
}

/// Calls `visit(cut value, side)` once for every bipartition: vertex
/// n − 1 stays on side `false`, which kills the complement symmetry.
/// The sides come in Gray-code order, so consecutive sides differ in one
/// vertex and each step updates the cut value in O(deg) instead of
/// recomputing it in O(m).
fn for_each_cut(g: &CsrGraph, mut visit: impl FnMut(EdgeWeight, &[bool])) {
    let n = g.n();
    assert!((2..=24).contains(&n), "brute force limited to 2 ≤ n ≤ 24");
    let mut side = vec![false; n];
    let mut cut: EdgeWeight = 0;
    for step in 1u32..(1 << (n - 1)) {
        // Step i of the reflected Gray code flips bit trailing_zeros(i),
        // always a vertex below n − 1.
        let v = step.trailing_zeros() as usize;
        let (mut stay, mut across) = (0, 0);
        for (x, w) in g.arcs(v as NodeId) {
            if side[x as usize] == side[v] {
                stay += w;
            } else {
                across += w;
            }
        }
        // Edges to v's old side start crossing, crossing edges stop;
        // `across` is part of `cut`, so the subtraction never underflows.
        cut = cut - across + stay;
        side[v] = !side[v];
        visit(cut, &side);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_cycle_star_complete_match_brute_force() {
        for n in 2..=7 {
            let (g, l) = path_graph(n, 3);
            assert_eq!(brute_force_mincut(&g), l, "path n={n}");
            let (g, l) = star_graph(n, 2);
            assert_eq!(brute_force_mincut(&g), l, "star n={n}");
            let (g, l) = complete_graph(n, 2);
            assert_eq!(brute_force_mincut(&g), l, "complete n={n}");
        }
        for n in 3..=8 {
            let (g, l) = cycle_graph(n, 4);
            assert_eq!(brute_force_mincut(&g), l, "cycle n={n}");
        }
    }

    #[test]
    fn grid_matches_brute_force() {
        for (r, c) in [(2, 2), (2, 4), (3, 3), (4, 4)] {
            let (g, l) = grid_graph(r, c, 2);
            assert_eq!(brute_force_mincut(&g), l, "grid {r}x{c}");
        }
    }

    #[test]
    fn two_communities_matches_brute_force() {
        let (g, l) = two_communities(5, 4, 2, 3, 1);
        assert_eq!(l, 2);
        assert_eq!(brute_force_mincut(&g), l);
        let (g, l) = barbell(6, 6, 2, 3);
        assert_eq!(l, 3);
        assert_eq!(brute_force_mincut(&g), l);
    }

    #[test]
    fn ring_of_cliques_matches_brute_force() {
        let (g, l) = ring_of_cliques(4, 4, 2, 1);
        assert_eq!(l, 2);
        assert_eq!(brute_force_mincut(&g), l);
        let (g, l) = ring_of_cliques(3, 5, 3, 2);
        assert_eq!(l, 4);
        assert_eq!(brute_force_mincut(&g), l);
    }

    /// The mask enumeration the Gray-code walk replaced: one side vector
    /// and one O(m) `cut_value` per mask. Reference for the test below.
    fn mask_all_min_cuts(g: &CsrGraph) -> (EdgeWeight, Vec<Vec<bool>>) {
        let n = g.n();
        let mut best = EdgeWeight::MAX;
        let mut sides: Vec<Vec<bool>> = Vec::new();
        for mask in 1u32..(1 << (n - 1)) {
            let mut side: Vec<bool> = (0..n).map(|v| v < n - 1 && (mask >> v) & 1 == 1).collect();
            let value = g.cut_value(&side);
            if value > best {
                continue;
            }
            if value < best {
                best = value;
                sides.clear();
            }
            if side[0] {
                for b in &mut side {
                    *b = !*b;
                }
            }
            sides.push(side);
        }
        sides.sort();
        (best, sides)
    }

    #[test]
    fn gray_code_oracles_match_the_mask_enumeration() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x6a7);
        for trial in 0..300 {
            let n = rng.gen_range(2..=14usize);
            let p = rng.gen_range(0.1..0.9);
            let mut edges = Vec::new();
            for u in 0..n as NodeId {
                for v in u + 1..n as NodeId {
                    if rng.gen_bool(p) {
                        edges.push((u, v, rng.gen_range(1..20)));
                    }
                }
            }
            // Sparse draws leave some graphs disconnected: λ = 0 with
            // many minimum cuts is covered too.
            let g = CsrGraph::from_edges(n, &edges);
            let want = mask_all_min_cuts(&g);
            assert_eq!(brute_force_mincut(&g), want.0, "trial {trial}");
            assert_eq!(brute_force_all_min_cuts(&g), want, "trial {trial}");
        }
    }

    #[test]
    #[should_panic(expected = "cheaper")]
    fn two_communities_rejects_degenerate_parameters() {
        // Bridges as expensive as splitting a clique: λ claim would be wrong.
        let _ = two_communities(3, 3, 2, 1, 2);
    }
}
