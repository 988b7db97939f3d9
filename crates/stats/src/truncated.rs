//! The `[0,1]`-truncated normal distribution `R_σ` (paper Eq. 6).
//!
//! `R_σ(r) ∝ Φ_{0,σ}(r)` for `r ∈ [0,1]` and 0 elsewhere: a half-normal
//! centred at 0 and renormalised on the unit interval. Small `σ`
//! concentrates mass near 0 (little injected uncertainty), large `σ`
//! approaches the uniform distribution on `[0,1]`.
//!
//! Sampling uses rejection from `|N(0,σ)|` when the acceptance probability
//! is high, with `|Z|` drawn by a 256-layer ziggurat, and exact inverse-CDF
//! sampling otherwise, so draws are cheap across the entire `σ` range that
//! Algorithm 1's binary search explores (from ~1e-8 up to hundreds).

use rand::Rng;

use crate::normal::{norm_cdf, norm_inv_cdf};
use crate::ziggurat::abs_std_normal;

/// A `[0,1]`-truncated half-normal sampler with scale `sigma`.
///
/// ```
/// use obf_stats::TruncatedNormal;
/// use rand::SeedableRng;
///
/// let dist = TruncatedNormal::new(0.05);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let r = dist.sample(&mut rng);
/// assert!((0.0..=1.0).contains(&r));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    sigma: f64,
    /// Mass of N(0, σ²) in [0, 1] when the sampler takes the inverse-CDF
    /// branch; `None` on the rejection branch, which never reads it (the
    /// acceptance probability of the rejection sampler is `2 * mass01`).
    inverse_mass01: Option<f64>,
}

/// Below this acceptance probability we switch from rejection sampling to
/// inverse-CDF sampling. With σ = 2 acceptance is ~0.38; rejection is still
/// fine there, so the threshold mostly guards the very diffuse regime.
const MIN_ACCEPTANCE: f64 = 0.25;

/// Largest σ at which the rejection branch is certain without evaluating
/// the normal CDF: acceptance there is `2(Φ(1/3) − ½) ≈ 0.261`, above
/// [`MIN_ACCEPTANCE`], and acceptance only grows as σ shrinks. Algorithm 2
/// builds one sampler per candidate pair, almost always below this.
const REJECTION_CERTAIN_SIGMA: f64 = 3.0;

impl TruncatedNormal {
    /// Creates the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not strictly positive and finite.
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "TruncatedNormal requires a positive, finite sigma; got {sigma}"
        );
        let inverse_mass01 = if sigma <= REJECTION_CERTAIN_SIGMA {
            None
        } else {
            Some(unit_mass(sigma)).filter(|&m| 2.0 * m < MIN_ACCEPTANCE)
        };
        Self {
            sigma,
            inverse_mass01,
        }
    }

    /// Mass of N(0, σ²) in `[0, 1]`, the normaliser of Eq. (6).
    fn mass01(&self) -> f64 {
        self.inverse_mass01.unwrap_or_else(|| unit_mass(self.sigma))
    }

    /// The scale parameter σ.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Density `R_σ(r)` of Eq. (6); zero outside `[0,1]`.
    pub fn pdf(&self, r: f64) -> f64 {
        if !(0.0..=1.0).contains(&r) {
            return 0.0;
        }
        crate::normal::norm_pdf(r, 0.0, self.sigma) / self.mass01()
    }

    /// CDF of the truncated distribution on `[0,1]`.
    pub fn cdf(&self, r: f64) -> f64 {
        if r <= 0.0 {
            0.0
        } else if r >= 1.0 {
            1.0
        } else {
            (norm_cdf(r, 0.0, self.sigma) - 0.5) / self.mass01()
        }
    }

    /// Inverse CDF (quantile function) on `[0,1]`.
    pub fn inv_cdf(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let p = 0.5 + u * self.mass01();
        norm_inv_cdf(p, 0.0, self.sigma).clamp(0.0, 1.0)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.inverse_mass01.is_some() {
            return self.inv_cdf(rng.gen::<f64>());
        }
        // Rejection from the half-normal |N(0,σ)|.
        loop {
            let r = self.sigma * abs_std_normal(rng);
            if r <= 1.0 {
                return r;
            }
        }
    }

    /// Mean of the truncated distribution (closed form), useful for tests
    /// and for reasoning about the expected amount of injected noise.
    pub fn mean(&self) -> f64 {
        // E[R] = σ (φ(0) - φ(1/σ)) / (Φ(1/σ) - Φ(0)) with standard-normal φ, Φ.
        let s = self.sigma;
        let a = crate::normal::phi(0.0) - crate::normal::phi(1.0 / s);
        s * a / (self.mass01() / 1.0)
    }
}

/// Mass of N(0, σ²) in `[0, 1]`.
fn unit_mass(sigma: f64) -> f64 {
    norm_cdf(1.0, 0.0, sigma) - 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The constructor as it was before the normaliser became lazy: it
    /// always evaluates the normal CDF and picks the branch from it. Kept
    /// as the oracle the lazy constructor must match bit for bit.
    struct EagerTruncatedNormal {
        sigma: f64,
        mass01: f64,
    }

    impl EagerTruncatedNormal {
        fn new(sigma: f64) -> Self {
            Self {
                sigma,
                mass01: norm_cdf(1.0, 0.0, sigma) - 0.5,
            }
        }

        fn pdf(&self, r: f64) -> f64 {
            if !(0.0..=1.0).contains(&r) {
                return 0.0;
            }
            crate::normal::norm_pdf(r, 0.0, self.sigma) / self.mass01
        }

        fn cdf(&self, r: f64) -> f64 {
            if r <= 0.0 {
                0.0
            } else if r >= 1.0 {
                1.0
            } else {
                (norm_cdf(r, 0.0, self.sigma) - 0.5) / self.mass01
            }
        }

        fn inv_cdf(&self, u: f64) -> f64 {
            let u = u.clamp(0.0, 1.0);
            let p = 0.5 + u * self.mass01;
            norm_inv_cdf(p, 0.0, self.sigma).clamp(0.0, 1.0)
        }

        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            if 2.0 * self.mass01 >= MIN_ACCEPTANCE {
                loop {
                    let r = self.sigma * abs_std_normal(rng);
                    if r <= 1.0 {
                        return r;
                    }
                }
            } else {
                self.inv_cdf(rng.gen::<f64>())
            }
        }

        fn mean(&self) -> f64 {
            let s = self.sigma;
            let a = crate::normal::phi(0.0) - crate::normal::phi(1.0 / s);
            s * a / (self.mass01 / 1.0)
        }
    }

    /// Asserts that the lazy and eager samplers draw the same stream from
    /// the same seed and agree on every closed-form quantity, by `to_bits`.
    fn assert_matches_eager(sigma: f64, seed: u64) {
        let (lazy, eager) = (
            TruncatedNormal::new(sigma),
            EagerTruncatedNormal::new(sigma),
        );
        let (mut a, mut b) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
        for i in 0..32 {
            let (x, y) = (lazy.sample(&mut a), eager.sample(&mut b));
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "sigma={sigma} draw {i}: {x} vs {y}"
            );
        }
        assert_eq!(
            a.gen::<u64>(),
            b.gen::<u64>(),
            "sigma={sigma}: streams diverged"
        );
        for r in [-0.5, 0.0, 1e-3, 0.25, 0.5, 0.999, 1.0, 2.0] {
            assert_eq!(
                lazy.pdf(r).to_bits(),
                eager.pdf(r).to_bits(),
                "pdf sigma={sigma} r={r}"
            );
            assert_eq!(
                lazy.cdf(r).to_bits(),
                eager.cdf(r).to_bits(),
                "cdf sigma={sigma} r={r}"
            );
        }
        for u in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(
                lazy.inv_cdf(u).to_bits(),
                eager.inv_cdf(u).to_bits(),
                "inv_cdf sigma={sigma} u={u}"
            );
        }
        assert_eq!(
            lazy.mean().to_bits(),
            eager.mean().to_bits(),
            "mean sigma={sigma}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lazy_constructor_matches_eager_log_uniform(log10_sigma in -9.0f64..3.0, seed in 0u64..1 << 20) {
            assert_matches_eager(10f64.powf(log10_sigma), seed);
        }
    }

    #[test]
    fn lazy_constructor_matches_eager_around_the_branch_cutoff() {
        // The rejection/inverse-CDF switch sits near σ ≈ 3.14; sweep
        // [2.9, 3.4] densely, including the lazy shortcut's edge at 3.
        let steps = 2_000;
        for i in 0..=steps {
            let sigma = 2.9 + 0.5 * i as f64 / steps as f64;
            assert_matches_eager(sigma, i as u64);
        }
        for sigma in [3.0, 3.0f64.next_up(), 3.0f64.next_down()] {
            assert_matches_eager(sigma, 7);
        }
    }

    fn sample_mean(sigma: f64, n: usize, seed: u64) -> f64 {
        let dist = TruncatedNormal::new(sigma);
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn samples_stay_in_unit_interval() {
        for &sigma in &[1e-6, 0.01, 0.3, 1.0, 10.0, 500.0] {
            let dist = TruncatedNormal::new(sigma);
            let mut rng = SmallRng::seed_from_u64(42);
            for _ in 0..2_000 {
                let r = dist.sample(&mut rng);
                assert!((0.0..=1.0).contains(&r), "sigma={sigma} r={r}");
            }
        }
    }

    #[test]
    fn tiny_sigma_concentrates_near_zero() {
        let m = sample_mean(1e-4, 5_000, 1);
        assert!(m < 1e-3, "mean={m}");
    }

    #[test]
    fn huge_sigma_approaches_uniform() {
        // As σ → ∞, R_σ → U[0,1] whose mean is 0.5.
        let m = sample_mean(1e4, 20_000, 2);
        assert!((m - 0.5).abs() < 0.01, "mean={m}");
    }

    #[test]
    fn empirical_mean_matches_closed_form() {
        for &sigma in &[0.1, 0.5, 2.0] {
            let dist = TruncatedNormal::new(sigma);
            let m = sample_mean(sigma, 200_000, 3);
            assert!(
                (m - dist.mean()).abs() < 5e-3,
                "sigma={sigma} sample={m} exact={}",
                dist.mean()
            );
        }
    }

    #[test]
    fn cdf_inverse_round_trip() {
        for &sigma in &[0.05, 0.4, 3.0] {
            let dist = TruncatedNormal::new(sigma);
            for i in 1..20 {
                let u = i as f64 / 20.0;
                let r = dist.inv_cdf(u);
                assert!((dist.cdf(r) - u).abs() < 1e-9, "sigma={sigma} u={u}");
            }
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        let dist = TruncatedNormal::new(0.3);
        let steps = 20_000;
        let dx = 1.0 / steps as f64;
        let total: f64 = (0..steps)
            .map(|i| dist.pdf((i as f64 + 0.5) * dx) * dx)
            .sum();
        assert!((total - 1.0).abs() < 1e-6, "total={total}");
    }

    #[test]
    fn pdf_zero_outside_support() {
        let dist = TruncatedNormal::new(0.3);
        assert_eq!(dist.pdf(-0.1), 0.0);
        assert_eq!(dist.pdf(1.1), 0.0);
    }

    #[test]
    fn pdf_is_decreasing_on_support() {
        let dist = TruncatedNormal::new(0.4);
        let mut prev = f64::INFINITY;
        for i in 0..=100 {
            let r = i as f64 / 100.0;
            let p = dist.pdf(r);
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_sigma() {
        let _ = TruncatedNormal::new(0.0);
    }

    /// Kolmogorov–Smirnov distance between `n` draws of `R_σ` and its CDF.
    fn ks_distance(dist: &TruncatedNormal, n: usize, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut draws: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        draws.sort_by(f64::total_cmp);
        draws
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let c = dist.cdf(r);
                (c - i as f64 / n as f64).max((i + 1) as f64 / n as f64 - c)
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn draws_fit_the_cdf() {
        // The KS statistic of n draws exceeds λ/√n with probability about
        // 2·exp(−2λ²); λ is set for a tail quantile of 1e-6.
        let n = 200_000;
        let lambda = (0.5 * (2.0 / 1e-6f64).ln()).sqrt();
        let bound = lambda / (n as f64).sqrt();
        for (seed, sigma) in [1e-6, 1e-3, 0.05, 0.5, 2.9, 10.0].into_iter().enumerate() {
            let dist = TruncatedNormal::new(sigma);
            // Every σ but the last takes the rejection branch.
            assert_eq!(dist.inverse_mass01.is_some(), sigma > 3.0, "sigma={sigma}");
            let d = ks_distance(&dist, n, seed as u64);
            assert!(d < bound, "sigma={sigma}: KS distance {d} ≥ {bound}");
        }
    }

    #[test]
    fn inverse_cdf_path_matches_rejection_path() {
        // Compare the two samplers' empirical CDFs at a σ where both work.
        let sigma = 0.8;
        let dist = TruncatedNormal::new(sigma);
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 50_000;
        let mut rejection: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mut inverse: Vec<f64> = (0..n).map(|_| dist.inv_cdf(rng.gen())).collect();
        rejection.sort_by(f64::total_cmp);
        inverse.sort_by(f64::total_cmp);
        // Kolmogorov–Smirnov style check on matched order statistics.
        let max_gap = rejection
            .iter()
            .zip(&inverse)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(max_gap < 0.02, "max_gap={max_gap}");
    }
}
