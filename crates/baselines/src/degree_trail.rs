//! The degree-trail attack on sequential releases (Medforth & Wang,
//! ICDM 2011), raised in the paper's conclusions (Section 8) as an open
//! question for probabilistic releases: an adversary who watches a target
//! user's degree evolve across `T` published snapshots intersects, per
//! snapshot, the set of vertices whose published degree matches the
//! target's trail — often narrowing to a unique vertex after a few
//! releases.
//!
//! For uncertain releases the published degree is a distribution, so the
//! attack generalises to a likelihood: the candidate set keeps vertices
//! whose degree distribution puts non-negligible mass on the trail value.
//! [`uncertain_trail_posterior`] computes the full posterior, which lets
//! experiments quantify how much the uncertain release blunts the attack.

use obf_graph::Graph;
use obf_uncertain::degree_dist::vertex_degree_distribution;
use obf_uncertain::UncertainGraph;

/// Candidates surviving the exact degree-trail attack on certain
/// releases: vertices whose degree in release `t` equals `trail[t]` for
/// every `t`.
///
/// # Panics
/// Panics if `releases` and `trail` lengths differ, or vertex counts vary
/// across releases.
pub fn degree_trail_candidates(releases: &[Graph], trail: &[usize]) -> Vec<u32> {
    assert_eq!(releases.len(), trail.len(), "one trail entry per release");
    if releases.is_empty() {
        return Vec::new();
    }
    let n = releases[0].num_vertices();
    for r in releases {
        assert_eq!(r.num_vertices(), n, "releases must share the vertex set");
    }
    (0..n as u32)
        .filter(|&v| releases.iter().zip(trail).all(|(g, &d)| g.degree(v) == d))
        .collect()
}

/// Posterior of the degree-trail attack against a sequence of *uncertain*
/// releases: for each vertex, the product over snapshots of
/// `Pr(deg_{G̃_t}(v) = trail[t])`, normalised over vertices. An all-zero
/// posterior (trail impossible everywhere) is returned unnormalised.
pub fn uncertain_trail_posterior(releases: &[UncertainGraph], trail: &[usize]) -> Vec<f64> {
    assert_eq!(releases.len(), trail.len(), "one trail entry per release");
    if releases.is_empty() {
        return Vec::new();
    }
    let n = releases[0].num_vertices();
    for r in releases {
        assert_eq!(r.num_vertices(), n, "releases must share the vertex set");
    }
    let mut weights = vec![1.0f64; n];
    for (g, &d) in releases.iter().zip(trail) {
        for v in 0..n as u32 {
            if weights[v as usize] == 0.0 {
                continue;
            }
            let dist = vertex_degree_distribution(g, v);
            weights[v as usize] *= dist.get(d).copied().unwrap_or(0.0);
        }
    }
    let total: f64 = weights.iter().sum();
    if total > 0.0 {
        for w in &mut weights {
            *w /= total;
        }
    }
    weights
}

/// Effective crowd size `2^H` of the trail posterior — the uncertain
/// analogue of `degree_trail_candidates().len()`.
pub fn uncertain_trail_crowd(releases: &[UncertainGraph], trail: &[usize]) -> f64 {
    let posterior = uncertain_trail_posterior(releases, trail);
    obf_stats::entropy::obfuscation_level(&posterior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obf_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exact_trail_narrows_candidates() {
        // Release 1: path 0-1-2-3 (degrees 1,2,2,1).
        // Release 2: star around 1 (degrees 1,3,1,1).
        let g1 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let g2 = Graph::from_edges(4, &[(1, 0), (1, 2), (1, 3)]);
        // Target trail (2, 1): degree 2 then degree 1 → only vertex 2.
        let cands = degree_trail_candidates(&[g1.clone(), g2.clone()], &[2, 1]);
        assert_eq!(cands, vec![2]);
        // A single release leaves 2 candidates.
        let cands1 = degree_trail_candidates(&[g1], &[2]);
        assert_eq!(cands1, vec![1, 2]);
    }

    #[test]
    fn empty_release_sequence() {
        assert!(degree_trail_candidates(&[], &[]).is_empty());
        assert!(uncertain_trail_posterior(&[], &[]).is_empty());
    }

    #[test]
    fn impossible_trail_gives_empty_set() {
        let g = generators::cycle(5); // all degree 2
        let cands = degree_trail_candidates(&[g], &[7]);
        assert!(cands.is_empty());
    }

    #[test]
    fn certain_releases_match_exact_attack() {
        // Posterior over certain releases must be uniform over the exact
        // candidate set.
        let g1 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let g2 = Graph::from_edges(4, &[(1, 0), (1, 2), (1, 3)]);
        let u1 = UncertainGraph::from_certain(&g1);
        let u2 = UncertainGraph::from_certain(&g2);
        let posterior = uncertain_trail_posterior(&[u1, u2], &[2, 1]);
        assert!((posterior[2] - 1.0).abs() < 1e-12);
        assert!(posterior[0] == 0.0 && posterior[1] == 0.0 && posterior[3] == 0.0);
    }

    #[test]
    fn uncertainty_blunts_the_attack() {
        // The same graph released twice: the exact attack pins targets to
        // their degree crowd, while an uncertain release with softened
        // edges spreads each posterior across neighbouring degrees.
        // Aggregate over a range of target degrees.
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::barabasi_albert(300, 2, &mut rng);
        let certain = UncertainGraph::from_certain(&g);
        let soft = UncertainGraph::new(300, g.edges().map(|(u, v)| (u, v, 0.8)).collect()).unwrap();
        let mut total_certain = 0.0;
        let mut total_soft = 0.0;
        for target in (0..300u32).step_by(37) {
            let trail = vec![g.degree(target), g.degree(target)];
            total_certain += uncertain_trail_crowd(&[certain.clone(), certain.clone()], &trail);
            total_soft += uncertain_trail_crowd(&[soft.clone(), soft.clone()], &trail);
        }
        assert!(
            total_soft > total_certain,
            "soft={total_soft} certain={total_certain}"
        );
    }

    #[test]
    #[should_panic(expected = "one trail entry per release")]
    fn mismatched_lengths_rejected() {
        let g = generators::cycle(4);
        let _ = degree_trail_candidates(&[g], &[1, 2]);
    }
}
