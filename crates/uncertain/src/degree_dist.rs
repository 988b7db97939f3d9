//! Per-vertex degree distributions in an uncertain graph (paper Section 4).
//!
//! The degree of `v` in `G̃` is the sum of independent Bernoulli variables
//! over the candidate pairs incident to `v` — a Poisson-binomial
//! distribution. [`poisson_binomial`] is the exact `O(ℓ²)` dynamic program
//! of Lemma 1; [`normal_cells`] is the central-limit approximation the
//! paper recommends when the number of addends is large. The exact
//! *expected degree distribution* of the whole graph,
//! `E[Δ(d)] = (1/n) Σ_v Pr(d_v = d)`, falls out for free and is used for
//! Figure 3.

use obf_stats::normal::norm_cdf4;

use crate::graph::UncertainGraph;

/// Method selection for per-vertex degree distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegreeDistMethod {
    /// Exact Poisson-binomial DP (Lemma 1).
    #[default]
    Exact,
    /// Continuity-corrected normal approximation (CLT).
    Normal,
    /// Exact below the threshold number of addends, normal above.
    Auto {
        /// Number of incident candidates at which to switch to the normal
        /// approximation; the paper notes the CLT is effective from ~30.
        threshold: usize,
    },
}

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

/// Continuity-corrected normal approximation of the Poisson binomial:
/// `out[j] ≈ Pr(Σ eᵢ = j)` using `N(μ, σ²)` with `μ = Σ pᵢ`,
/// `σ² = Σ pᵢ(1−pᵢ)` (paper Section 4, Eq. 5): cell `j` is
/// `P(j − 1/2 < X ≤ j + 1/2)`. Degenerates to a point mass when `σ² = 0`.
///
/// Adjacent cells share a boundary (`j + 0.5 == (j + 1) − 0.5` exactly in
/// `f64`), so the CDF is evaluated once per boundary: `ℓ + 2` boundaries
/// for `ℓ + 1` cells, four at a time through
/// [`norm_cdf4`], whose lanes are
/// bit-identical to `norm_cdf`.
pub fn normal_cells(probs: &[f64]) -> Vec<f64> {
    let mu: f64 = probs.iter().sum();
    let var: f64 = probs.iter().map(|&p| p * (1.0 - p)).sum();
    let len = probs.len() + 1;
    if var <= 1e-300 {
        let mut out = vec![0.0; len];
        let j = mu.round() as usize;
        out[j.min(len - 1)] = 1.0;
        return out;
    }
    let sigma = var.sqrt();
    // cdf[b] = Φ at the boundary b − 1/2, for b in 0..=len.
    let mut cdf = vec![0.0f64; len + 1];
    for (c, chunk) in cdf.chunks_mut(4).enumerate() {
        let x: [f64; 4] = std::array::from_fn(|i| (4 * c + i) as f64 - 0.5);
        chunk.copy_from_slice(&norm_cdf4(x, mu, sigma)[..chunk.len()]);
    }
    let mut out: Vec<f64> = cdf.windows(2).map(|w| (w[1] - w[0]).max(0.0)).collect();
    // Renormalise the truncation to the valid support [0, ℓ].
    let total: f64 = out.iter().sum();
    if total > 0.0 {
        for x in &mut out {
            *x /= total;
        }
    }
    out
}

/// Degree distribution of vertex `v` in `G̃`: `out[ω] = X_v(ω)` (Eq. 2 for
/// the degree property), with `out.len() - 1` equal to the number of
/// candidate pairs incident to `v`.
pub fn vertex_degree_distribution(
    g: &UncertainGraph,
    v: u32,
    method: DegreeDistMethod,
) -> Vec<f64> {
    // The SoA CSR stores the incident probabilities contiguously, so the
    // DP reads the row in place — no per-vertex gather allocation.
    let probs: &[f64] = g.incident_probs(v);
    match method {
        DegreeDistMethod::Exact => poisson_binomial(probs),
        DegreeDistMethod::Normal => normal_cells(probs),
        DegreeDistMethod::Auto { threshold } => {
            if probs.len() <= threshold {
                poisson_binomial(probs)
            } else {
                normal_cells(probs)
            }
        }
    }
}

/// Support-truncated variant of [`vertex_degree_distribution`]: the first
/// `min(ℓ_v, cap) + 1` entries of the vertex's degree distribution,
/// bit-identical to the same prefix of the full row.
///
/// The exact method uses the truncated recurrence of
/// [`poisson_binomial_capped`]; the normal method computes the full row
/// first (its truncation renormalisation depends on every cell) and
/// truncates afterwards, which is still cheap because each normal cell is
/// `O(1)`.
pub fn vertex_degree_distribution_capped(
    g: &UncertainGraph,
    v: u32,
    method: DegreeDistMethod,
    cap: usize,
) -> Vec<f64> {
    let probs: &[f64] = g.incident_probs(v);
    match method {
        DegreeDistMethod::Exact => poisson_binomial_capped(probs, cap),
        DegreeDistMethod::Normal => truncate_row(normal_cells(probs), cap),
        DegreeDistMethod::Auto { threshold } => {
            if probs.len() <= threshold {
                poisson_binomial_capped(probs, cap)
            } else {
                truncate_row(normal_cells(probs), cap)
            }
        }
    }
}

fn truncate_row(mut row: Vec<f64>, cap: usize) -> Vec<f64> {
    row.truncate(cap + 1);
    row
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
        let dist = vertex_degree_distribution(g, v, DegreeDistMethod::Exact);
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
    use obf_stats::normal::norm_cdf;
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
        let dist = vertex_degree_distribution(&g, 0, DegreeDistMethod::Exact);
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
            let dist = vertex_degree_distribution(&g, v as u32, DegreeDistMethod::Exact);
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

    /// Probability that a `N(mu, sigma^2)` variable rounds to the integer
    /// `w`, i.e. `P(w - 1/2 < X <= w + 1/2)`, with both boundaries
    /// evaluated afresh: the oracle for [`normal_cells`]' shared
    /// boundaries.
    fn norm_cell_prob(w: f64, mu: f64, sigma: f64) -> f64 {
        (norm_cdf(w + 0.5, mu, sigma) - norm_cdf(w - 0.5, mu, sigma)).max(0.0)
    }

    /// [`normal_cells`] with one [`norm_cell_prob`] call per cell.
    fn normal_cells_oracle(probs: &[f64]) -> Vec<f64> {
        let mu: f64 = probs.iter().sum();
        let var: f64 = probs.iter().map(|&p| p * (1.0 - p)).sum();
        let len = probs.len() + 1;
        if var <= 1e-300 {
            let mut out = vec![0.0; len];
            out[(mu.round() as usize).min(len - 1)] = 1.0;
            return out;
        }
        let sigma = var.sqrt();
        let mut out: Vec<f64> = (0..len)
            .map(|j| norm_cell_prob(j as f64, mu, sigma))
            .collect();
        let total: f64 = out.iter().sum();
        if total > 0.0 {
            for x in &mut out {
                *x /= total;
            }
        }
        out
    }

    #[test]
    fn cell_probs_sum_to_one() {
        // Sum of continuity-corrected cells over a wide integer range is ~1.
        let (mu, sigma) = (7.3, 2.1);
        let total: f64 = (-20..60).map(|w| norm_cell_prob(w as f64, mu, sigma)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
    }

    #[test]
    fn cell_prob_nonnegative_tiny_sigma() {
        let p = norm_cell_prob(5.0, 5.0, 1e-9);
        assert!((p - 1.0).abs() < 1e-12);
        assert_eq!(norm_cell_prob(6.0, 5.0, 1e-9), 0.0);
    }

    #[test]
    fn shared_boundary_cells_are_bit_identical_to_the_oracle() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut rows: Vec<Vec<f64>> = vec![
            // σ² ≤ 1e-300: the point mass, at the low, middle and top cell.
            vec![0.0; 70],
            [vec![1.0; 40], vec![0.0; 40]].concat(),
            vec![1.0; 65],
            // Tiny σ: one probability a hair off 0 or 1, the rest certain.
            [vec![1.0; 80], vec![1e-12], vec![0.0; 10]].concat(),
            [vec![1.0 - 1e-9; 3], vec![0.0; 90]].concat(),
        ];
        // The CLT rows of the σ-search: 65–300 incident candidates.
        for len in [65, 66, 100, 129, 200, 257, 300] {
            rows.push((0..len).map(|_| rng.gen::<f64>()).collect());
            rows.push((0..len).map(|_| rng.gen::<f64>() * 0.05).collect());
        }
        for probs in &rows {
            assert_eq!(
                bits(&normal_cells(probs)),
                bits(&normal_cells_oracle(probs)),
                "len={}",
                probs.len()
            );
        }
    }

    #[test]
    fn capped_vertex_distribution_matches_all_methods() {
        let g = figure1b();
        for method in [
            DegreeDistMethod::Exact,
            DegreeDistMethod::Normal,
            DegreeDistMethod::Auto { threshold: 2 },
        ] {
            for v in 0..4u32 {
                let full = vertex_degree_distribution(&g, v, method);
                for cap in 0..6usize {
                    let capped = vertex_degree_distribution_capped(&g, v, method, cap);
                    let keep = full.len().min(cap + 1);
                    assert_eq!(capped, full[..keep], "v={v} cap={cap} {method:?}");
                }
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
    fn normal_approximation_close_for_many_addends() {
        let mut rng = SmallRng::seed_from_u64(2);
        let probs: Vec<f64> = (0..200).map(|_| rng.gen::<f64>() * 0.5 + 0.25).collect();
        let exact = poisson_binomial(&probs);
        let normal = normal_cells(&probs);
        // Total variation distance should be small.
        let tv: f64 = exact
            .iter()
            .zip(&normal)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.01, "tv={tv}");
    }

    #[test]
    fn normal_cells_sums_to_one() {
        let probs = vec![0.4; 50];
        let cells = normal_cells(&probs);
        assert!((cells.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normal_degenerate_all_certain() {
        let cells = normal_cells(&[1.0, 1.0]);
        assert_eq!(cells[2], 1.0);
        assert_eq!(cells[0], 0.0);
    }

    #[test]
    fn auto_switches_methods() {
        let g = figure1b();
        let auto_low = vertex_degree_distribution(&g, 0, DegreeDistMethod::Auto { threshold: 10 });
        let exact = vertex_degree_distribution(&g, 0, DegreeDistMethod::Exact);
        assert_eq!(auto_low, exact);
        let auto_hi = vertex_degree_distribution(&g, 0, DegreeDistMethod::Auto { threshold: 1 });
        let normal = vertex_degree_distribution(&g, 0, DegreeDistMethod::Normal);
        assert_eq!(auto_hi, normal);
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
