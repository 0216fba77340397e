//! k-core decomposition (Batagelj & Zaversnik, O(m)).
//!
//! The paper prepares its real-world instances by taking k-cores "to
//! generate versions of the graphs with a minimum degree of k" and running
//! on the largest connected component (Appendix A.2). Core numbers are
//! computed on *unweighted* degrees, matching that setup.

use crate::components::largest_component;
use crate::{CsrGraph, NodeId};

/// Core number of every vertex: the largest k such that the vertex belongs
/// to the k-core (maximal subgraph with all degrees ≥ k).
///
/// Bucket-based peeling in O(n + m).
pub fn core_numbers(g: &CsrGraph) -> Vec<u32> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<u32> = (0..n as NodeId).map(|v| g.degree(v) as u32).collect();
    let max_deg = *degree.iter().max().unwrap() as usize;

    // Vertices bucketed by current degree (counting sort).
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &degree {
        bin[d as usize + 1] += 1;
    }
    for i in 0..max_deg + 1 {
        bin[i + 1] += bin[i];
    }
    let mut start = bin.clone(); // start[d] = first index of degree-d zone
    let mut vert = vec![0 as NodeId; n];
    let mut pos = vec![0usize; n];
    for v in 0..n as NodeId {
        let d = degree[v as usize] as usize;
        vert[start[d]] = v;
        pos[v as usize] = start[d];
        start[d] += 1;
    }

    // Peel in non-decreasing degree order; `vert` mutates as vertices are
    // re-bucketed.
    let mut core = vec![0u32; n];
    for i in 0..n {
        let v = vert[i];
        core[v as usize] = degree[v as usize];
        for &u in g.neighbors(v) {
            if degree[u as usize] > degree[v as usize] {
                // Move u one degree-bucket down: swap it with the first
                // vertex of its current zone, then shrink the zone.
                let du = degree[u as usize] as usize;
                let pu = pos[u as usize];
                let pw = bin[du];
                let w = vert[pw];
                if u != w {
                    vert[pu] = w;
                    vert[pw] = u;
                    pos[u as usize] = pw;
                    pos[w as usize] = pu;
                }
                bin[du] += 1;
                degree[u as usize] -= 1;
            }
        }
    }
    core
}

/// The k-core as a subgraph: vertices with core number ≥ k, plus the map
/// from new ids to original ids.
pub fn k_core(g: &CsrGraph, k: u32) -> (CsrGraph, Vec<NodeId>) {
    let core = core_numbers(g);
    let keep: Vec<bool> = core.iter().map(|&c| c >= k).collect();
    g.induced_subgraph(&keep)
}

/// The paper's instance preparation: largest connected component of the
/// k-core. Returns the prepared graph and the mapping to original ids.
pub fn k_core_lcc(g: &CsrGraph, k: u32) -> (CsrGraph, Vec<NodeId>) {
    let (core_graph, core_ids) = k_core(g, k);
    let (lcc, lcc_ids) = largest_component(&core_graph);
    let orig: Vec<NodeId> = lcc_ids.iter().map(|&v| core_ids[v as usize]).collect();
    (lcc, orig)
}

/// Degeneracy of the graph: the maximum core number.
pub fn degeneracy(g: &CsrGraph) -> u32 {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle with a pendant path: 0-1-2 triangle, 2-3-4 path.
    fn triangle_with_tail() -> CsrGraph {
        CsrGraph::from_unweighted_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn core_numbers_triangle_with_tail() {
        let core = core_numbers(&triangle_with_tail());
        assert_eq!(core, vec![2, 2, 2, 1, 1]);
    }

    #[test]
    fn k_core_extracts_triangle() {
        let (c2, ids) = k_core(&triangle_with_tail(), 2);
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(c2.n(), 3);
        assert_eq!(c2.m(), 3);
        assert_eq!(c2.min_degree(), Some(2));
    }

    #[test]
    fn k_core_of_clique_is_clique() {
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_unweighted_edges(6, &edges);
        let core = core_numbers(&g);
        assert!(core.iter().all(|&c| c == 5));
        assert_eq!(degeneracy(&g), 5);
        let (c6, _) = k_core(&g, 5);
        assert_eq!(c6.n(), 6);
        let (c7, _) = k_core(&g, 6);
        assert_eq!(c7.n(), 0);
    }

    #[test]
    fn kcore_lcc_picks_largest_piece() {
        // Two triangles (2-cores) of different... same size; add a 4-clique.
        let mut edges = vec![(0u32, 1u32), (1, 2), (0, 2)];
        for u in 3..7u32 {
            for v in u + 1..7 {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_unweighted_edges(7, &edges);
        let (lcc, ids) = k_core_lcc(&g, 2);
        assert_eq!(lcc.n(), 4);
        assert_eq!(ids, vec![3, 4, 5, 6]);
        assert!(lcc.min_degree().unwrap() >= 2);
    }

    #[test]
    fn every_vertex_of_kcore_has_degree_at_least_k() {
        // A small pseudo-random graph; structural invariant check.
        let mut edges = Vec::new();
        let mut x = 12345u64;
        for _ in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((x >> 33) % 60) as u32;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((x >> 33) % 60) as u32;
            if u != v {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_unweighted_edges(60, &edges);
        for k in 1..=6 {
            let (sub, _) = k_core(&g, k);
            if sub.n() > 0 {
                assert!(
                    sub.min_degree().unwrap() >= k as usize,
                    "k-core property violated for k={k}"
                );
            }
        }
    }
}
