//! Property-based tests of the numeric substrate.

use obf_stats::describe::{quantile, BoxplotSummary};
use obf_stats::entropy::{entropy_bits, entropy_bits_normalized};
use obf_stats::hoeffding::{hoeffding_bound, hoeffding_sample_size};
use obf_stats::normal::{norm_cdf, norm_pdf, std_norm_cdf, std_norm_inv_cdf};
use obf_stats::IntHistogram;
use obf_stats::TruncatedNormal;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cdf_monotone_and_bounded(a in -6.0f64..6.0, b in -6.0f64..6.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (cl, ch) = (std_norm_cdf(lo), std_norm_cdf(hi));
        prop_assert!((0.0..=1.0).contains(&cl));
        prop_assert!(cl <= ch + 1e-15);
    }

    #[test]
    fn inv_cdf_round_trip(p in 1e-8f64..1.0) {
        prop_assume!(p < 1.0 - 1e-8);
        let z = std_norm_inv_cdf(p);
        prop_assert!((std_norm_cdf(z) - p).abs() < 1e-8);
    }

    #[test]
    fn pdf_integrates_near_cdf_difference(mu in -3.0f64..3.0, sigma in 0.1f64..3.0) {
        // Trapezoid integral of the pdf over [mu-sigma, mu+sigma] matches
        // the CDF difference.
        let (lo, hi) = (mu - sigma, mu + sigma);
        let steps = 2000;
        let dx = (hi - lo) / steps as f64;
        let mut acc = 0.0;
        for i in 0..steps {
            let x = lo + (i as f64 + 0.5) * dx;
            acc += norm_pdf(x, mu, sigma) * dx;
        }
        let exact = norm_cdf(hi, mu, sigma) - norm_cdf(lo, mu, sigma);
        prop_assert!((acc - exact).abs() < 1e-6);
    }

    #[test]
    fn truncated_normal_support(sigma in 1e-6f64..100.0, seed in 0u64..1000) {
        let dist = TruncatedNormal::new(sigma);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..50 {
            let r = dist.sample(&mut rng);
            prop_assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn truncated_normal_cdf_round_trip(sigma in 0.01f64..10.0, u in 0.001f64..0.999) {
        let dist = TruncatedNormal::new(sigma);
        let r = dist.inv_cdf(u);
        prop_assert!((dist.cdf(r) - u).abs() < 1e-7);
    }

    #[test]
    fn entropy_max_for_uniform(n in 1usize..100) {
        let w = vec![1.0; n];
        let h = entropy_bits_normalized(&w);
        prop_assert!((h - (n as f64).log2()).abs() < 1e-9);
    }

    #[test]
    fn entropy_nonnegative(weights in proptest::collection::vec(0.0f64..1.0, 1..60)) {
        prop_assert!(entropy_bits_normalized(&weights) >= 0.0);
        let total: f64 = weights.iter().sum();
        prop_assume!(total > 0.0);
        let normed: Vec<f64> = weights.iter().map(|w| w / total).collect();
        prop_assert!(entropy_bits(&normed) >= 0.0);
    }

    #[test]
    fn hoeffding_consistency(
        range in 0.1f64..100.0,
        eps in 0.01f64..10.0,
        delta in 0.001f64..0.5
    ) {
        let r = hoeffding_sample_size(0.0, range, eps, delta);
        prop_assert!(hoeffding_bound(0.0, range, r, eps) <= delta + 1e-9);
    }

    #[test]
    fn quantile_within_range(mut xs in proptest::collection::vec(-100.0f64..100.0, 1..50), q in 0.0f64..1.0) {
        xs.sort_by(f64::total_cmp);
        let v = quantile(&xs, q);
        prop_assert!(v >= xs[0] - 1e-12 && v <= xs[xs.len() - 1] + 1e-12);
    }

    #[test]
    fn boxplot_ordered(xs in proptest::collection::vec(-1e3f64..1e3, 1..40)) {
        let b = BoxplotSummary::of(&xs).unwrap();
        prop_assert!(b.min <= b.q1 + 1e-12);
        prop_assert!(b.q1 <= b.median + 1e-12);
        prop_assert!(b.median <= b.q3 + 1e-12);
        prop_assert!(b.q3 <= b.max + 1e-12);
    }

    #[test]
    fn histogram_percentile_monotone(values in proptest::collection::vec(0usize..30, 1..80)) {
        let h = IntHistogram::from_values(values);
        let mut prev = 0.0;
        for i in 0..=20 {
            let p = h.interpolated_percentile(i as f64 / 20.0);
            prop_assert!(p >= prev - 1e-12);
            prev = p;
        }
    }

    #[test]
    fn histogram_mean_matches_manual(values in proptest::collection::vec(0usize..40, 1..60)) {
        let manual: f64 = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        let h = IntHistogram::from_values(values);
        prop_assert!((h.mean() - manual).abs() < 1e-9);
    }
}
