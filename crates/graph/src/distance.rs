//! Shortest-path distance distributions on certain graphs.
//!
//! The paper's distance-based statistics (Section 6.3) — average distance
//! `S_APD`, effective diameter `S_EDiam`, connectivity length `S_CL`,
//! distance distribution `S_PDD` and diameter lower bound `S_DiamLB` — are
//! all derived from the distribution of pairwise distances. This module
//! computes that distribution exactly (all-pairs BFS, for small graphs and
//! for validating HyperANF).

use obf_stats::IntHistogram;

use crate::graph::Graph;
use crate::traversal::{bfs_distances_into, UNREACHABLE};

/// Distribution of pairwise distances: `histogram.count(t)` is the number
/// of unordered vertex pairs at distance `t >= 1`, and `unreachable_pairs`
/// counts pairs in different components (the paper's `S_PDD[∞]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceDistribution {
    pub histogram: IntHistogram,
    pub unreachable_pairs: u64,
}

impl DistanceDistribution {
    /// Total number of unordered pairs covered (connected + unreachable).
    pub fn total_pairs(&self) -> u64 {
        self.histogram.total() + self.unreachable_pairs
    }

    /// Derives the scalar distance statistics.
    pub fn stats(&self) -> DistanceStats {
        DistanceStats::from_distribution(self)
    }

    /// Fraction of connected pairs at each distance (paper Figure 2's
    /// y-axis: "fraction of pairs", over reachable pairs).
    pub fn fractions(&self) -> Vec<f64> {
        self.histogram.fractions()
    }
}

/// Scalar distance statistics (Section 6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceStats {
    /// `S_APD`: average distance among path-connected pairs.
    pub average_distance: f64,
    /// `S_EDiam`: interpolated 90th-percentile distance among connected
    /// pairs.
    pub effective_diameter: f64,
    /// `S_CL`: connectivity length — harmonic mean over *all* pairs with
    /// `1/dist = 0` for disconnected pairs.
    pub connectivity_length: f64,
    /// `S_Diam` (or its lower bound when estimated): maximum finite
    /// distance.
    pub diameter: u32,
    /// Number of path-connected unordered pairs.
    pub connected_pairs: u64,
    /// Number of disconnected unordered pairs.
    pub unreachable_pairs: u64,
}

impl DistanceStats {
    /// Computes the scalars from a distance distribution.
    pub fn from_distribution(dd: &DistanceDistribution) -> Self {
        let h = &dd.histogram;
        let connected = h.total();
        let average_distance = if connected == 0 { 0.0 } else { h.mean() };
        let effective_diameter = h.interpolated_percentile(0.9);
        let diameter = h.max_value().unwrap_or(0) as u32;
        // Harmonic sum over connected pairs.
        let harm: f64 = h
            .counts()
            .iter()
            .enumerate()
            .skip(1)
            .map(|(t, &c)| c as f64 / t as f64)
            .sum();
        let total = dd.total_pairs();
        let connectivity_length = if harm == 0.0 || total == 0 {
            0.0
        } else {
            total as f64 / harm
        };
        Self {
            average_distance,
            effective_diameter,
            connectivity_length,
            diameter,
            connected_pairs: connected,
            unreachable_pairs: dd.unreachable_pairs,
        }
    }
}

/// Exact distribution of pairwise distances by BFS from every vertex
/// (`O(n·m)`); intended for small graphs and for validating approximate
/// estimators.
pub fn exact_distance_distribution(g: &Graph) -> DistanceDistribution {
    let n = g.num_vertices();
    let mut hist = IntHistogram::new();
    let mut unreachable = 0u64;
    let mut dist = Vec::new();
    let mut queue = Vec::new();
    for s in 0..n as u32 {
        bfs_distances_into(g, s, &mut dist, &mut queue);
        // Count each unordered pair once: only targets > s.
        for &d in dist.iter().take(n).skip(s as usize + 1) {
            match d {
                UNREACHABLE => unreachable += 1,
                d => hist.add(d as usize),
            }
        }
    }
    DistanceDistribution {
        histogram: hist,
        unreachable_pairs: unreachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_distribution() {
        // P4: distances 1:3 pairs, 2:2 pairs, 3:1 pair.
        let g = generators::path(4);
        let dd = exact_distance_distribution(&g);
        assert_eq!(dd.histogram.count(1), 3);
        assert_eq!(dd.histogram.count(2), 2);
        assert_eq!(dd.histogram.count(3), 1);
        assert_eq!(dd.unreachable_pairs, 0);
        assert_eq!(dd.total_pairs(), 6);
    }

    #[test]
    fn path_stats() {
        let g = generators::path(4);
        let s = exact_distance_distribution(&g).stats();
        assert!((s.average_distance - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.diameter, 3);
        assert_eq!(s.connected_pairs, 6);
        // Harmonic: pairs/Σ(1/d) = 6 / (3 + 1 + 1/3) = 6/(13/3) = 18/13.
        assert!((s.connectivity_length - 18.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_distances() {
        let g = generators::complete(6);
        let s = exact_distance_distribution(&g).stats();
        assert_eq!(s.average_distance, 1.0);
        assert_eq!(s.diameter, 1);
        assert!((s.connectivity_length - 1.0).abs() < 1e-12);
        // Effective diameter of a point-mass at 1 interpolates inside the
        // cell.
        assert!(s.effective_diameter >= 1.0 && s.effective_diameter < 2.0);
    }

    #[test]
    fn disconnected_pairs_counted() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let dd = exact_distance_distribution(&g);
        assert_eq!(dd.histogram.count(1), 2);
        assert_eq!(dd.unreachable_pairs, 4);
        let s = dd.stats();
        assert_eq!(s.connected_pairs, 2);
        assert_eq!(s.unreachable_pairs, 4);
        // CL counts disconnected pairs in the numerator population:
        // 6 pairs / Σ(1/d)=2 → 3.
        assert!((s.connectivity_length - 3.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_vertices_only() {
        let g = Graph::empty(3);
        let dd = exact_distance_distribution(&g);
        assert_eq!(dd.histogram.total(), 0);
        assert_eq!(dd.unreachable_pairs, 3);
        let s = dd.stats();
        assert_eq!(s.average_distance, 0.0);
        assert_eq!(s.connectivity_length, 0.0);
    }

    #[test]
    fn effective_diameter_reasonable() {
        let g = generators::path(11);
        let s = exact_distance_distribution(&g).stats();
        // P11 distances 1..10; the 90th percentile is large but below the
        // diameter+1.
        assert!(s.effective_diameter > 6.0 && s.effective_diameter <= 10.0);
        assert_eq!(s.diameter, 10);
    }
}
