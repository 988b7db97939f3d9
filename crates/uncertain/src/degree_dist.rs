//! Per-vertex degree distributions in an uncertain graph (paper Section 4).
//!
//! The degree of `v` in `G̃` is the sum of independent Bernoulli variables
//! over the candidate pairs incident to `v` — a Poisson-binomial
//! distribution, computed exactly by [`poisson_binomial`], the `O(ℓ²)`
//! dynamic program of Lemma 1. The paper's central-limit shortcut for
//! large ℓ is not offered: at small σ, where incident probabilities sit
//! near 0 or 1, it understates ε̃. The exact *expected degree
//! distribution* of the whole graph, `E[Δ(d)] = (1/n) Σ_v Pr(d_v = d)`,
//! falls out for free and is used for Figure 3.

use crate::graph::UncertainGraph;

/// Exact Poisson-binomial probability mass function: `out[j] = Pr(Σ eᵢ = j)`
/// for independent Bernoulli variables with success probabilities `probs`.
/// Runs the Lemma 1 recurrence in `O(ℓ²)` time, `O(ℓ)` space: it is
/// [`poisson_binomial_capped`] with the cap at the full support.
pub fn poisson_binomial(probs: &[f64]) -> Vec<f64> {
    poisson_binomial_capped(probs, probs.len())
}

/// Support-truncated Poisson binomial: the first `min(ℓ, cap) + 1`
/// entries of [`poisson_binomial`], computed in `O(ℓ·cap)` instead of
/// `O(ℓ²)`.
///
/// The Lemma 1 recurrence updates `dist[j]` from `dist[j]` and
/// `dist[j − 1]` only, so never materialising the entries above `cap`
/// cannot perturb the ones below: the returned prefix is **bit-identical**
/// to the full DP. This is the work-efficiency lever of the σ-search fast
/// path — the Definition 2 check only ever reads `X_v(ω)` at the original
/// graph's degrees, so `cap = max_deg(G)` while a vertex may have far more
/// incident candidates in `E_C`.
///
/// Each cell is `dist[j]·(1 − p) + dist[j − 1]·p`, with the out-of-range
/// operand of the two edge cells replaced by a literal `0.0` addend (so a
/// `-0.0` product rounds to `+0.0` there, exactly as a `0.0` term would).
///
/// # Examples
///
/// ```
/// use obf_uncertain::degree_dist::{poisson_binomial, poisson_binomial_capped};
///
/// let probs = [0.2, 0.5, 0.9, 0.01, 0.77];
/// let full = poisson_binomial(&probs);
/// let capped = poisson_binomial_capped(&probs, 2);
/// assert_eq!(capped, full[..=2]);
/// ```
pub fn poisson_binomial_capped(probs: &[f64], cap: usize) -> Vec<f64> {
    let support = probs.len().min(cap);
    let mut dist = vec![0.0f64; support + 1];
    dist[0] = 1.0;
    for (l, &p) in probs.iter().enumerate() {
        debug_assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        let q = 1.0 - p;
        // dist[0..=l] holds the distribution of the first l variables.
        // The new top cell reads the old dist[l], so it goes first; the
        // forward sweep then carries each old dist[j − 1] in `prev`.
        if l < support {
            dist[l + 1] = 0.0 + dist[l] * p;
        }
        let mut prev = dist[0];
        dist[0] = prev * q + 0.0;
        for cell in &mut dist[1..=l.min(support)] {
            let cur = *cell;
            *cell = cur * q + prev * p;
            prev = cur;
        }
    }
    dist
}

/// Degree distribution of vertex `v` in `G̃`: `out[ω] = X_v(ω)` (Eq. 2 for
/// the degree property), with `out.len() - 1` equal to the number of
/// candidate pairs incident to `v`.
pub fn vertex_degree_distribution(g: &UncertainGraph, v: u32) -> Vec<f64> {
    // The SoA CSR stores the incident probabilities contiguously, so the
    // DP reads the row in place — no per-vertex gather allocation.
    poisson_binomial(g.incident_probs(v))
}

/// Exact expected degree distribution of the uncertain graph:
/// `out[d] = E[Δ(d)] = (1/n) Σ_v Pr(d_v = d)` — the quantity Figure 3
/// estimates by sampling, computed here in closed form.
pub fn degree_distribution_exact(g: &UncertainGraph) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut acc: Vec<f64> = Vec::new();
    for v in 0..n as u32 {
        let dist = vertex_degree_distribution(g, v);
        if dist.len() > acc.len() {
            acc.resize(dist.len(), 0.0);
        }
        for (d, &p) in dist.iter().enumerate() {
            acc[d] += p;
        }
    }
    for x in &mut acc {
        *x /= n as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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
    fn paper_example1_v1_degree_two() {
        // Example 1: Pr(deg(v1) = 2) = 0.398.
        let g = figure1b();
        let dist = vertex_degree_distribution(&g, 0);
        assert!((dist[2] - 0.398).abs() < 1e-12, "got {}", dist[2]);
    }

    #[test]
    fn paper_table1_x_matrix_rows() {
        // Table 1, X_v(ω), all four rows to 3 decimals.
        let g = figure1b();
        let expected = [
            [0.006, 0.092, 0.398, 0.504],
            [0.054, 0.348, 0.542, 0.056],
            [0.020, 0.260, 0.720, 0.000],
            [0.180, 0.740, 0.080, 0.000],
        ];
        for (v, row) in expected.iter().enumerate() {
            let dist = vertex_degree_distribution(&g, v as u32);
            for (omega, &want) in row.iter().enumerate() {
                let got = dist.get(omega).copied().unwrap_or(0.0);
                assert!(
                    (got - want).abs() < 5e-4,
                    "v{} deg{} got {} want {}",
                    v + 1,
                    omega,
                    got,
                    want
                );
            }
        }
    }

    #[test]
    fn poisson_binomial_sums_to_one() {
        let probs = [0.2, 0.5, 0.9, 0.01, 0.77];
        let dist = poisson_binomial(&probs);
        assert_eq!(dist.len(), 6);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_binomial_matches_binomial() {
        // Equal probabilities reduce to a binomial.
        let p = 0.3f64;
        let n = 10;
        let dist = poisson_binomial(&vec![p; n]);
        for (k, &got) in dist.iter().enumerate() {
            let binom = choose(n, k) * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32);
            assert!((got - binom).abs() < 1e-12, "k={k}");
        }
    }

    fn choose(n: usize, k: usize) -> f64 {
        (0..k).fold(1.0, |acc, i| acc * (n - i) as f64 / (i + 1) as f64)
    }

    #[test]
    fn poisson_binomial_brute_force_agreement() {
        // Enumerate all subsets for small inputs.
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            let len = rng.gen_range(1..=8);
            let probs: Vec<f64> = (0..len).map(|_| rng.gen::<f64>()).collect();
            let dp = poisson_binomial(&probs);
            let mut brute = vec![0.0; len + 1];
            for mask in 0u32..(1 << len) {
                let mut pr = 1.0;
                let mut ones = 0;
                for (i, &p) in probs.iter().enumerate() {
                    if mask >> i & 1 == 1 {
                        pr *= p;
                        ones += 1;
                    } else {
                        pr *= 1.0 - p;
                    }
                }
                brute[ones] += pr;
            }
            for (a, b) in dp.iter().zip(&brute) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    /// The Lemma 1 recurrence as first written: one in-place sweep from
    /// the top per variable, with the out-of-range terms of the edge cells
    /// picked by branches. The oracle for the branch-free kernel.
    fn poisson_binomial_capped_oracle(probs: &[f64], cap: usize) -> Vec<f64> {
        let support = probs.len().min(cap);
        let mut dist = vec![0.0f64; support + 1];
        dist[0] = 1.0;
        for (l, &p) in probs.iter().enumerate() {
            for j in (0..=(l + 1).min(support)).rev() {
                let stay = if j <= l { dist[j] * (1.0 - p) } else { 0.0 };
                let up = if j > 0 { dist[j - 1] * p } else { 0.0 };
                dist[j] = stay + up;
            }
        }
        dist
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    /// A probability that is an exact `0.0`, `-0.0` or `1.0` one time in
    /// four, uniform otherwise.
    fn arb_prob() -> impl Strategy<Value = f64> {
        (0usize..12, 0.0f64..=1.0).prop_map(|(pick, p)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            _ => p,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn branch_free_dp_is_bit_identical_to_the_oracle(
            probs in proptest::collection::vec(arb_prob(), 0..40)
        ) {
            let len = probs.len();
            for cap in 0..=len + 1 {
                let got = poisson_binomial_capped(&probs, cap);
                let want = poisson_binomial_capped_oracle(&probs, cap);
                prop_assert_eq!(bits(&got), bits(&want), "cap={}", cap);
            }
            let full = poisson_binomial(&probs);
            prop_assert_eq!(bits(&full), bits(&poisson_binomial_capped_oracle(&probs, len)));
        }
    }

    #[test]
    fn capped_dp_is_bit_identical_prefix() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let len = rng.gen_range(0..=24);
            let probs: Vec<f64> = (0..len).map(|_| rng.gen::<f64>()).collect();
            let full = poisson_binomial(&probs);
            for cap in 0..=len + 2 {
                let capped = poisson_binomial_capped(&probs, cap);
                let keep = len.min(cap) + 1;
                assert_eq!(capped.len(), keep);
                assert_eq!(bits(&capped), bits(&full[..keep]), "len={len} cap={cap}");
            }
        }
    }

    #[test]
    fn signed_zero_cells_round_like_the_oracle() {
        // A -0.0 probability makes every `dist[j - 1] * p` term -0.0; the
        // edge cells' literal 0.0 addends must still yield +0.0.
        for probs in [
            vec![-0.0],
            vec![-0.0, -0.0, 1.0],
            vec![1.0, -0.0, 0.0, -0.0],
            vec![0.0, 1.0, -0.0],
        ] {
            for cap in 0..=probs.len() + 1 {
                assert_eq!(
                    bits(&poisson_binomial_capped(&probs, cap)),
                    bits(&poisson_binomial_capped_oracle(&probs, cap)),
                    "{probs:?} cap={cap}"
                );
            }
        }
    }

    #[test]
    fn empty_probs_is_point_mass_at_zero() {
        assert_eq!(poisson_binomial(&[]), vec![1.0]);
    }

    #[test]
    fn deterministic_probs() {
        let dist = poisson_binomial(&[1.0, 1.0, 0.0]);
        assert!((dist[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_degree_distribution_matches_sampling() {
        let g = figure1b();
        let exact = degree_distribution_exact(&g);
        // Monte-Carlo check.
        let mut rng = SmallRng::seed_from_u64(3);
        let r = 40_000;
        let mut acc = vec![0.0f64; exact.len()];
        for _ in 0..r {
            let w = g.sample_world(&mut rng);
            for v in 0..4u32 {
                acc[w.degree(v)] += 1.0;
            }
        }
        for x in &mut acc {
            *x /= (r * 4) as f64;
        }
        for (d, (a, b)) in exact.iter().zip(&acc).enumerate() {
            assert!((a - b).abs() < 0.01, "d={d} exact={a} sampled={b}");
        }
    }

    #[test]
    fn expected_degree_distribution_normalised() {
        let g = figure1b();
        let dd = degree_distribution_exact(&g);
        assert!((dd.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let empty = UncertainGraph::new(0, vec![]).unwrap();
        assert!(degree_distribution_exact(&empty).is_empty());
    }
}
