//! Hoeffding-style sampling error bounds (paper Lemma 2 and Corollary 1).
//!
//! For a statistic `S` with range `[a, b]` estimated by the average over
//! `r` sampled possible worlds,
//! `Pr(|E(S) - S̄| ≥ ε) ≤ 2 exp(-2ε²r / (b-a)²)` (Lemma 2), so
//! `r ≥ ((b-a)/ε)² ln(2/δ) / 2` samples suffice for error `ε` with failure
//! probability at most `δ` (Corollary 1).

/// Upper bound on `Pr(|E(S) - S̄| ≥ eps)` after `r` samples of a statistic
/// bounded in `[a, b]` (Lemma 2, Eq. 10).
pub fn hoeffding_bound(a: f64, b: f64, r: usize, eps: f64) -> f64 {
    assert!(b >= a, "invalid statistic range [{a}, {b}]");
    assert!(eps > 0.0, "eps must be positive");
    if r == 0 {
        return 1.0;
    }
    if b == a {
        // Constant statistic: estimate is exact.
        return 0.0;
    }
    let range = b - a;
    (2.0 * (-2.0 * eps * eps * r as f64 / (range * range)).exp()).min(1.0)
}

/// Minimal number of sampled worlds guaranteeing
/// `Pr(|E(S) - S̄| ≥ eps) ≤ delta` (Corollary 1).
pub fn hoeffding_sample_size(a: f64, b: f64, eps: f64, delta: f64) -> usize {
    assert!(b >= a, "invalid statistic range [{a}, {b}]");
    assert!(eps > 0.0, "eps must be positive");
    assert!(
        (0.0..1.0).contains(&delta) && delta > 0.0,
        "delta must be in (0,1)"
    );
    if b == a {
        return 1;
    }
    let range = b - a;
    let r = 0.5 * (range / eps).powi(2) * (2.0 / delta).ln();
    r.ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_decreases_with_samples() {
        let b1 = hoeffding_bound(0.0, 1.0, 10, 0.1);
        let b2 = hoeffding_bound(0.0, 1.0, 100, 0.1);
        let b3 = hoeffding_bound(0.0, 1.0, 1000, 0.1);
        assert!(b1 > b2 && b2 > b3);
    }

    #[test]
    fn bound_capped_at_one() {
        assert_eq!(hoeffding_bound(0.0, 100.0, 1, 0.001), 1.0);
        assert_eq!(hoeffding_bound(0.0, 1.0, 0, 0.1), 1.0);
    }

    #[test]
    fn constant_statistic_is_exact() {
        assert_eq!(hoeffding_bound(3.0, 3.0, 1, 0.5), 0.0);
        assert_eq!(hoeffding_sample_size(3.0, 3.0, 0.5, 0.1), 1);
    }

    #[test]
    fn sample_size_satisfies_bound() {
        for &(a, b, eps, delta) in &[
            (0.0, 1.0, 0.05, 0.05),
            (0.0, 99.0, 1.0, 0.01),
            (1.0, 50.0, 0.5, 0.1),
        ] {
            let r = hoeffding_sample_size(a, b, eps, delta);
            assert!(hoeffding_bound(a, b, r, eps) <= delta + 1e-12);
            // And r-1 samples would NOT satisfy it (minimality), except r=1.
            if r > 1 {
                assert!(hoeffding_bound(a, b, r - 1, eps) > delta - 1e-12);
            }
        }
    }

    #[test]
    fn clustering_coefficient_example() {
        // Section 6.4: S_CC ∈ [0,1] needs r = ln(2/δ)/(2ε²) worlds.
        let r = hoeffding_sample_size(0.0, 1.0, 0.05, 0.05);
        let expected = (0.5 * (2.0f64 / 0.05).ln() / (0.05 * 0.05)).ceil() as usize;
        assert_eq!(r, expected);
        assert_eq!(r, 738);
    }

    #[test]
    #[should_panic(expected = "invalid statistic range")]
    fn rejects_inverted_range() {
        let _ = hoeffding_bound(1.0, 0.0, 10, 0.1);
    }
}
