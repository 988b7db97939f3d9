//! Triangle counting and clustering coefficients (paper Section 6.4).
//!
//! The paper defines `S_CC = T₃/T₂` with `T₃` the number of 3-cliques and
//! `T₂` the number of *connected triplets*, i.e. 3-vertex subsets that
//! induce a connected subgraph (Example 3 fixes the semantics:
//! `T₂[K₃] = 1`, not 3). Hence `T₂ = Σ_v C(deg v, 2) − 2·T₃`, since a
//! triangle is counted as a centre-path three times but is a single
//! connected triplet. It differs from the more common global clustering
//! measure `3T₃/Σ C(deg v, 2)`.
//!
//! Triangles are counted with the sorted-adjacency merge ("forward")
//! algorithm, fine for the graph sizes the possible-world sampling
//! produces.

use crate::graph::Graph;

/// Number of triangles (3-cliques) in the graph.
pub fn triangle_count(g: &Graph) -> u64 {
    let n = g.num_vertices() as u32;
    let mut count = 0u64;
    for u in 0..n {
        let adj_u = g.neighbors(u);
        for &v in adj_u.iter().filter(|&&v| v > u) {
            // Count common neighbours w > v of u and v (canonical u<v<w).
            let adj_v = g.neighbors(v);
            count += sorted_intersection_above(adj_u, adj_v, v);
        }
    }
    count
}

/// Size of the intersection of two sorted slices restricted to values
/// strictly greater than `floor`.
fn sorted_intersection_above(a: &[u32], b: &[u32], floor: u32) -> u64 {
    let mut i = a.partition_point(|&x| x <= floor);
    let mut j = b.partition_point(|&x| x <= floor);
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Number of centre-paths of length 2: `Σ_v C(deg v, 2)`.
pub fn center_paths(g: &Graph) -> u64 {
    (0..g.num_vertices() as u32)
        .map(|v| {
            let d = g.degree(v) as u64;
            d.saturating_sub(1) * d / 2
        })
        .sum()
}

/// The paper's `T₂`: number of connected 3-vertex subsets,
/// `Σ_v C(deg v, 2) − 2·T₃` (each triangle contributes three centre-paths
/// but is one triplet). Takes a precomputed triangle count to avoid
/// counting twice.
pub fn connected_triples_with(g: &Graph, triangles: u64) -> u64 {
    center_paths(g) - 2 * triangles
}

/// The paper's global clustering coefficient `S_CC = T₃ / T₂` (Section
/// 6.4), in `[0, 1]`; 0 when there are no connected triplets.
pub fn global_clustering_coefficient(g: &Graph) -> f64 {
    let t3 = triangle_count(g);
    let t2 = connected_triples_with(g, t3);
    if t2 == 0 {
        return 0.0;
    }
    t3 as f64 / t2 as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(n: usize) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                edges.push((u, v));
            }
        }
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn k3_from_paper_example3() {
        // Example 3: S_CC[K3] = 1.
        let g = complete(3);
        assert_eq!(triangle_count(&g), 1);
        // Example 3: T2[K3] = 1 (one connected triplet), not 3 centre-paths.
        assert_eq!(connected_triples_with(&g, triangle_count(&g)), 1);
        assert_eq!(center_paths(&g), 3);
        assert!((global_clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_from_paper_example3() {
        // Example 3: u-v, u-w only → S_CC = 0.
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        assert_eq!(triangle_count(&g), 0);
        assert_eq!(connected_triples_with(&g, triangle_count(&g)), 1);
        assert_eq!(global_clustering_coefficient(&g), 0.0);
    }

    #[test]
    fn k4_counts() {
        let g = complete(4);
        assert_eq!(triangle_count(&g), 4);
        // Centre paths = 4 * C(3,2) = 12; T2 = 12 - 2*4 = 4; CC = 4/4 = 1.
        assert_eq!(center_paths(&g), 12);
        assert_eq!(connected_triples_with(&g, triangle_count(&g)), 4);
        assert!((global_clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_cc_vs_transitivity_differ_on_mixed_graph() {
        // Triangle 0-1-2 plus pendant 3 on 0: T3=1, centre-paths=3+1=... :
        // degrees 3,2,2,1 → Σ C(d,2) = 3+1+1+0 = 5; T2 = 5-2 = 3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]);
        assert_eq!(triangle_count(&g), 1);
        assert_eq!(center_paths(&g), 5);
        assert_eq!(connected_triples_with(&g, triangle_count(&g)), 3);
        assert!((global_clustering_coefficient(&g) - 1.0 / 3.0).abs() < 1e-12);
        // The common measure 3·T₃ / Σ C(d, 2) gives 3/5 instead.
        let common = 3.0 * triangle_count(&g) as f64 / center_paths(&g) as f64;
        assert!((common - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn k5_triangles() {
        assert_eq!(triangle_count(&complete(5)), 10);
    }

    #[test]
    fn triangle_free_graph() {
        // 6-cycle: no triangles, CC = 0.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(triangle_count(&g), 0);
        assert_eq!(global_clustering_coefficient(&g), 0.0);
    }

    #[test]
    fn brute_force_agreement() {
        // Deterministic pseudo-random graph; compare against O(n^3) brute
        // force.
        let n = 24u32;
        let mut edges = Vec::new();
        let mut state = 12345u64;
        for u in 0..n {
            for v in u + 1..n {
                state = crate::hashers::splitmix64(state);
                if state % 100 < 23 {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(n as usize, &edges);
        let mut brute = 0u64;
        for a in 0..n {
            for b in a + 1..n {
                for c in b + 1..n {
                    if g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c) {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(triangle_count(&g), brute);
    }

    #[test]
    fn empty_graph_cc() {
        let g = Graph::empty(5);
        assert_eq!(global_clustering_coefficient(&g), 0.0);
        assert_eq!(global_clustering_coefficient(&Graph::empty(0)), 0.0);
    }
}
