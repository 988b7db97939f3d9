//! Sampling possible worlds (paper Section 6.1).
//!
//! A possible world is drawn by including each candidate pair `e`
//! independently with probability `p(e)`; the result is an ordinary
//! certain [`Graph`] on which any statistic can be evaluated.
//!
//! [`UncertainGraph::sample_world`] draws from a caller's RNG.
//! [`sample_indexed_world`] gives world `i` its own RNG seeded from the
//! [`stream_seed`] SplitMix-style stream, so the drawn worlds are a pure
//! function of `(master_seed, i)`. The Section 6.1 estimators
//! (`evaluate_uncertain` and the server's `STAT` memo) draw their worlds
//! this way, so they draw the same worlds at any thread count.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use obf_graph::{stream_seed, Graph, GraphBuilder};

use crate::graph::UncertainGraph;

/// Draws the `index`-th world of the seed stream derived from
/// `master_seed` — a pure function of `(graph, master_seed, index)`.
pub fn sample_indexed_world(g: &UncertainGraph, master_seed: u64, index: usize) -> Graph {
    let mut rng = SmallRng::seed_from_u64(stream_seed(master_seed, index as u64));
    g.sample_world(&mut rng)
}

/// Builder capacity for a sampled world: the expected edge count, clamped
/// to `[16, num_candidates]`. The clamp keeps the f64→usize cast on the
/// well-defined path — a non-finite or huge `mass` (conceivable only for
/// adversarial inputs, but the cast would saturate silently) can never
/// request more slots than candidates exist, and NaN falls through the
/// comparison to the floor.
fn world_capacity(mass: f64, num_candidates: usize) -> usize {
    let ceil = if mass.is_finite() && mass > 0.0 {
        mass.ceil().min(num_candidates as f64) as usize
    } else {
        0
    };
    ceil.clamp(16, num_candidates.max(16))
}

impl UncertainGraph {
    /// Draws one possible world (Eq. 1 semantics: each candidate
    /// independently with its probability).
    pub fn sample_world<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        let mut b = GraphBuilder::with_capacity(
            self.num_vertices(),
            world_capacity(self.total_probability_mass(), self.num_candidates()),
        );
        // candidate_pairs() yields the identical (u, v, p) sequence on the
        // heap and mmap stores, so the RNG stream — and therefore the
        // sampled world — is bit-identical regardless of how the snapshot
        // was loaded.
        for (u, v, p) in self.candidate_pairs() {
            // Branching on the cheap cases first: most probabilities in an
            // obfuscated graph are near 0 or 1.
            if p >= 1.0 || (p > 0.0 && rng.gen::<f64>() < p) {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// Draws `r` independent possible worlds.
    pub fn sample_worlds<R: Rng + ?Sized>(&self, r: usize, rng: &mut R) -> Vec<Graph> {
        (0..r).map(|_| self.sample_world(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn figure1b() -> UncertainGraph {
        UncertainGraph::new(
            4,
            vec![
                (0, 1, 0.7),
                (0, 2, 0.9),
                (0, 3, 0.8),
                (1, 2, 0.8),
                (1, 3, 0.1),
                (2, 3, 0.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn certain_graph_sampling_is_identity() {
        let g = obf_graph::Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let ug = UncertainGraph::from_certain(&g);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..5 {
            let w = ug.sample_world(&mut rng);
            assert_eq!(w, g);
        }
    }

    #[test]
    fn zero_probability_pairs_never_appear() {
        let ug = figure1b();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..200 {
            let w = ug.sample_world(&mut rng);
            assert!(!w.has_edge(2, 3));
        }
    }

    #[test]
    fn edge_frequency_matches_probability() {
        let ug = figure1b();
        let mut rng = SmallRng::seed_from_u64(3);
        let r = 20_000;
        let mut count01 = 0usize;
        let mut count13 = 0usize;
        for _ in 0..r {
            let w = ug.sample_world(&mut rng);
            if w.has_edge(0, 1) {
                count01 += 1;
            }
            if w.has_edge(1, 3) {
                count13 += 1;
            }
        }
        assert!((count01 as f64 / r as f64 - 0.7).abs() < 0.02);
        assert!((count13 as f64 / r as f64 - 0.1).abs() < 0.02);
    }

    #[test]
    fn expected_edges_match_mass() {
        let ug = figure1b();
        let mut rng = SmallRng::seed_from_u64(4);
        let r = 20_000;
        let total: usize = (0..r).map(|_| ug.sample_world(&mut rng).num_edges()).sum();
        let avg = total as f64 / r as f64;
        assert!(
            (avg - ug.total_probability_mass()).abs() < 0.05,
            "avg={avg}"
        );
    }

    #[test]
    fn sample_many_returns_r_worlds() {
        let ug = figure1b();
        let mut rng = SmallRng::seed_from_u64(5);
        let worlds = ug.sample_worlds(7, &mut rng);
        assert_eq!(worlds.len(), 7);
        for w in &worlds {
            assert_eq!(w.num_vertices(), 4);
        }
    }

    #[test]
    fn world_capacity_clamped_for_extreme_and_nonfinite_mass() {
        // Ordinary graphs: expected mass, floored at 16.
        assert_eq!(world_capacity(3.3, 6), 16);
        assert_eq!(world_capacity(120.7, 500), 121);
        // Mass can never request more slots than candidates exist.
        assert_eq!(world_capacity(1e300, 1000), 1000);
        assert_eq!(world_capacity(f64::MAX, 32), 32);
        // Non-finite mass degrades to the floor instead of saturating.
        assert_eq!(world_capacity(f64::INFINITY, 1000), 16);
        assert_eq!(world_capacity(f64::NAN, 1000), 16);
        assert_eq!(world_capacity(-1.0, 1000), 16);
        assert_eq!(world_capacity(0.0, 0), 16);
    }

    #[test]
    fn extreme_mass_graph_samples_fine() {
        // A graph whose total mass equals its candidate count (all-certain):
        // the capacity path must stay exact and the world complete.
        let n = 600u32;
        let cands: Vec<(u32, u32, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let g = UncertainGraph::new(n as usize, cands).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let w = g.sample_world(&mut rng);
        assert_eq!(w.num_edges(), n as usize - 1);
    }

    #[test]
    fn indexed_worlds_are_pure_and_match_probabilities() {
        let ug = figure1b();
        // World i is the world of its own stream seed, however often and
        // in whatever order it is drawn.
        for i in [4, 0, 9, 4] {
            let mut rng = SmallRng::seed_from_u64(stream_seed(7, i as u64));
            assert_eq!(sample_indexed_world(&ug, 7, i), ug.sample_world(&mut rng));
        }
        // And the stream frequency still matches the probabilities.
        let r = 4000;
        let hits = (0..r)
            .filter(|&i| sample_indexed_world(&ug, 1234, i).has_edge(0, 1))
            .count();
        assert!((hits as f64 / r as f64 - 0.7).abs() < 0.03);
    }
}
